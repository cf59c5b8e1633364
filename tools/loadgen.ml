(* Load generator for the multi-session server: N client threads, each
   its own connection and session, replaying a deterministic rotation of
   an instance's request sequence and timing every request round trip.

   Latencies are collected per client (plain local arrays — client
   threads share the main domain, so they must not write shared metric
   shards concurrently) and merged into a [Metrics] histogram on the
   main thread after the join; the report's percentiles come from
   {!Metrics.approx_quantile} over that histogram, the same estimator
   the rest of the toolkit uses.

   [dump_dir] writes each session's exact request stream to
   [DIR/ID.jsonl] so a harness can replay the same streams through
   single-session stdin mode and diff the durable decision logs —
   that replay is the byte-identity check in CI. *)

open Omflp_instance
open Omflp_serve
open Omflp_obs

type config = {
  connect : string;  (* Listener address syntax *)
  env : Instance.t;  (* request source; metric/cost live server-side *)
  sessions : int;
  requests_per_session : int;
  algo : string option;
  seed : int option;
  snapshot_every : int option;
  checkpoint : bool option;
  resume : bool;
  window : int;  (* max in-flight requests per connection *)
  session_prefix : string;
  dump_dir : string option;
}

type report = {
  r_sessions : int;
  r_requests : int;  (* decisions received, across sessions *)
  r_elapsed_s : float;
  r_throughput_rps : float;
  r_total_cost : float;  (* summed over sessions' done records *)
  r_latency : Metrics.histogram_view option;  (* None when no requests *)
  r_min_s : float;
  r_max_s : float;
}

let fail fmt = Printf.ksprintf failwith fmt

(* Session [i] replays the instance's requests rotated by [i] (wrapping
   when it asks for more than the instance holds): every session's
   stream is distinct but fully determined by (env, i). *)
let stream_for cfg i =
  let reqs = cfg.env.Instance.requests in
  let n = Array.length reqs in
  if n = 0 then fail "Loadgen: the --env instance has no requests to replay";
  Array.init cfg.requests_per_session (fun j ->
      Wire.request_line reqs.((i + j) mod n))

let session_id cfg i = Printf.sprintf "%s%d" cfg.session_prefix i

let hello cfg i =
  Wire.hello_to_json
    {
      Wire.h_session = session_id cfg i;
      h_algo = cfg.algo;
      h_seed = cfg.seed;
      h_snapshot_every = cfg.snapshot_every;
      h_checkpoint = cfg.checkpoint;
      h_resume = cfg.resume;
    }

type client_result = {
  latencies : float array;  (* one per decision received *)
  total_cost : float;
}

(* One client: handshake, then a windowed send/receive loop — up to
   [window] requests in flight, each decision matched back to its send
   time by request index. Raises [Failure] on any protocol surprise. *)
let client cfg addr i stream =
  let fd = Listener.connect_addr addr in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      let send line =
        output_string oc line;
        output_char oc '\n';
        flush oc
      in
      let recv () =
        match input_line ic with
        | line -> (
            match Wire.parse_server_line line with
            | Ok l -> l
            | Error e -> fail "Loadgen: session %s: %s" (session_id cfg i) e)
        | exception End_of_file ->
            fail "Loadgen: session %s: server closed the connection"
              (session_id cfg i)
      in
      send (hello cfg i);
      let base =
        match recv () with
        | Wire.Ack a ->
            (* Crash-window decisions re-sent after the ack are not
               responses to anything we sent: drain them first. *)
            for _ = 1 to a.Wire.a_reemitted do
              ignore (recv ())
            done;
            a.Wire.a_served
        | Wire.Refused e ->
            fail "Loadgen: session %s refused: %s" (session_id cfg i) e
        | Wire.Decision_line _ | Wire.Done _ ->
            fail "Loadgen: session %s: expected an ack" (session_id cfg i)
      in
      let n = Array.length stream in
      let t_send = Array.make (max n 1) 0.0 in
      let lat = Array.make (max n 1) 0.0 in
      let sent = ref 0 and received = ref 0 in
      while !received < n do
        while !sent < n && !sent - !received < cfg.window do
          t_send.(!sent) <- Metrics.now ();
          send stream.(!sent);
          incr sent
        done;
        match recv () with
        | Wire.Decision_line idx ->
            let j = idx - base in
            if j < 0 || j >= n then
              fail "Loadgen: session %s: decision index %d outside [%d,%d)"
                (session_id cfg i) idx base (base + n);
            lat.(j) <- Metrics.now () -. t_send.(j);
            incr received
        | Wire.Refused e ->
            fail "Loadgen: session %s: server error: %s" (session_id cfg i) e
        | Wire.Ack _ -> fail "Loadgen: session %s: duplicate ack" (session_id cfg i)
        | Wire.Done _ ->
            fail "Loadgen: session %s: premature done record" (session_id cfg i)
      done;
      (* Half-close: tells the server the stream is over; it answers with
         the done record after finalizing (final snapshot included). *)
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      let rec wait_done () =
        match recv () with
        | Wire.Done (_, total) -> total
        | Wire.Decision_line _ | Wire.Ack _ | Wire.Refused _ -> wait_done ()
      in
      let total = wait_done () in
      { latencies = Array.sub lat 0 n; total_cost = total })

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let dump cfg streams =
  match cfg.dump_dir with
  | None -> ()
  | Some dir ->
      mkdir_p dir;
      Array.iteri
        (fun i stream ->
          let path = Filename.concat dir (session_id cfg i ^ ".jsonl") in
          let oc = open_out path in
          Array.iter
            (fun line ->
              output_string oc line;
              output_char oc '\n')
            stream;
          close_out oc)
        streams

let latency_h = Metrics.histogram "loadgen.latency_s"

(* [run cfg] drives the whole load: spawn one client thread per session,
   join, merge. Returns [Error] (first failure message) when any client
   failed — partial latency data is discarded. *)
let run cfg =
  if cfg.sessions < 1 then invalid_arg "Loadgen.run: sessions must be >= 1";
  if cfg.requests_per_session < 0 then
    invalid_arg "Loadgen.run: requests must be >= 0";
  if cfg.window < 1 then invalid_arg "Loadgen.run: window must be >= 1";
  match Listener.parse cfg.connect with
  | Error e -> Error (Printf.sprintf "Loadgen: bad address: %s" e)
  | Ok addr -> (
      let streams = Array.init cfg.sessions (stream_for cfg) in
      dump cfg streams;
      let results = Array.make cfg.sessions None in
      let errors = Array.make cfg.sessions None in
      let t0 = Metrics.now () in
      let thr =
        Array.init cfg.sessions (fun i ->
            Thread.create
              (fun () ->
                match client cfg addr i streams.(i) with
                | r -> results.(i) <- Some r
                | exception Failure e -> errors.(i) <- Some e
                | exception e -> errors.(i) <- Some (Printexc.to_string e))
              ())
      in
      Array.iter Thread.join thr;
      let elapsed = Metrics.now () -. t0 in
      match Array.find_map Fun.id errors with
      | Some e -> Error e
      | None ->
          let rs = Array.map Option.get results in
          let n_requests =
            Array.fold_left (fun a r -> a + Array.length r.latencies) 0 rs
          in
          let total_cost =
            Array.fold_left (fun a r -> a +. r.total_cost) 0.0 rs
          in
          (* Merge into the shared histogram on this one thread; restore
             the global enable flag afterwards so driving load does not
             silently switch observability on for the host process. *)
          let was_enabled = Metrics.enabled () in
          Metrics.set_enabled true;
          let mn = ref infinity and mx = ref neg_infinity in
          Array.iter
            (fun r ->
              Array.iter
                (fun l ->
                  Metrics.observe latency_h l;
                  if l < !mn then mn := l;
                  if l > !mx then mx := l)
                r.latencies)
            rs;
          Metrics.set_enabled was_enabled;
          let view =
            List.find_opt
              (fun v -> v.Metrics.h_name = "loadgen.latency_s")
              (Metrics.snapshot ()).Metrics.histograms
          in
          Ok
            {
              r_sessions = cfg.sessions;
              r_requests = n_requests;
              r_elapsed_s = elapsed;
              r_throughput_rps =
                (if elapsed > 0.0 then float_of_int n_requests /. elapsed
                 else 0.0);
              r_total_cost = total_cost;
              r_latency = (if n_requests = 0 then None else view);
              r_min_s = (if n_requests = 0 then 0.0 else !mn);
              r_max_s = (if n_requests = 0 then 0.0 else !mx);
            })

let print_report oc r =
  Printf.fprintf oc
    "loadgen: %d session(s), %d request(s) in %.3f s — %.1f req/s; summed \
     cost %.17g\n"
    r.r_sessions r.r_requests r.r_elapsed_s r.r_throughput_rps r.r_total_cost;
  (match r.r_latency with
  | None -> Printf.fprintf oc "loadgen: no requests, no latency data\n"
  | Some v ->
      let q p = Metrics.approx_quantile v p in
      Printf.fprintf oc
        "loadgen: latency p50 %.6f s, p90 %.6f s, p99 %.6f s (min %.6f, max \
         %.6f, mean %.6f)\n"
        (q 0.5) (q 0.9) (q 0.99) r.r_min_s r.r_max_s
        (v.Metrics.h_sum /. float_of_int (max 1 v.Metrics.h_events)));
  flush oc
