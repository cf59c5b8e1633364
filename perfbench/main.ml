(* Socket-level serving benchmark for `omflp serve --listen`.

     main.exe --server EXE --workload NAME --seed N --seconds S --trace 0|1

   One run: write the workload's instance, draw the streams from the
   seed, pin the server to one CPU and this process to another, then
   1. spawn the server (--workers 1) and measure it to its first ack;
   2. closed loop, ~30% of S: two connections, [Workload.window]
      requests in flight each, rounds of back-to-back whole sessions ->
      throughput and server CPU per decision;
   3. open loop, ~70% of S, in segments: requests due on a fixed
      schedule at the workload's rate, latency timed from the due time
      -> p50/p99, and server CPU per decision; after each segment
   4. one crash-probe cycle on a server of its own: checkpointed
      sessions SIGKILLed at [kill_at], the server restarted on the same
      root, every session resumed through the handshake -> resume time
      and server CPU per resume; then [open_probes] one-request sessions
      opened one at a time on the idle main server -> session open time;
   5. every session checked against the in-process reference;
   6. with --trace 1, the traced in-process replay (Traced) -> per-layer
      metrics, and its spans written to .perfbench_run/spans-NAME.jsonl.
   The last stdout line is the JSON result; everything the benchmark
   writes stays under .perfbench_run/ in the working directory. *)

open Omflp_instance

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

type args = {
  server : string;
  workload : Workload.t;
  seed : int;
  seconds : float;
  trace : bool;
}

let parse_args () =
  let server = ref "" and workload = ref "" and seed = ref None
  and seconds = ref None and trace = ref None in
  let int_of name v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> die "%s expects an integer, got %S" name v
  in
  let rec go = function
    | "--server" :: v :: rest -> server := v; go rest
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := Some (int_of "--seed" v); go rest
    | "--seconds" :: v :: rest -> seconds := Some (int_of "--seconds" v); go rest
    | "--trace" :: v :: rest -> trace := Some (int_of "--trace" v); go rest
    | [] -> ()
    | a :: _ -> die "unknown argument %S" a
  in
  go (List.tl (Array.to_list Sys.argv));
  let workload =
    match Workload.find !workload with
    | Some w -> w
    | None ->
        die "--workload must be one of %s"
          (String.concat ", " (List.map (fun w -> w.Workload.name) Workload.all))
  in
  match (!seed, !seconds, !trace) with
  | Some seed, Some s, Some t when s >= 1 && (t = 0 || t = 1) && !server <> "" ->
      { server = !server; workload; seed; seconds = float_of_int s; trace = t = 1 }
  | _ ->
      die
        "usage: main.exe --server EXE --workload NAME --seed N --seconds S \
         (S >= 1) --trace 0|1"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

let out_dir = ".perfbench_run"
let open_probes = 60
let closed_share = 0.3  (* of --seconds; the open loop gets the rest *)

let pct_s s p = Clock.s_of_ns (int_of_float (Clock.percentile s p))

let median l =
  match List.sort compare l with
  | [] -> nan
  | s -> List.nth s (List.length s / 2)

(* Mean of the middle half of the values: like the median, a few rounds
   that a phase of the shared host slowed or sped up do not move it, but
   it is not stuck to one sample's 10 ms tick of CPU time. *)
let mid_mean l =
  let s = Array.of_list (List.sort compare l) in
  let n = Array.length s in
  if n = 0 then nan
  else
    let lo = n / 4 in
    let hi = max (lo + 1) (n - (n / 4)) in
    Array.fold_left ( +. ) 0.0 (Array.sub s lo (hi - lo)) /. float_of_int (hi - lo)

let main a =
  let w = a.workload in
  let dir = Filename.concat out_dir (Printf.sprintf "%s-%d" w.Workload.name (Unix.getpid ())) in
  mkdir_p dir;
  Fun.protect
    ~finally:(fun () ->
      Server_proc.kill_all ();
      rm_rf dir)
  @@ fun () ->
  let ( // ) = Filename.concat in
  (* inputs: the server gets the instance (metric + costs) only *)
  let inst = Workload.instance w in
  let env_file = dir // "env.inst" in
  Serial.save_file env_file (Instance.truncate inst 0);
  let loaded = Serial.load_file env_file in
  let stream ~index ~len = Workload.stream inst ~seed:a.seed ~index ~len in
  let rctx =
    {
      Reference.algo = Reference.algo ();
      env = Instance.env loaded;
      instance_md5 = Digest.to_hex (Digest.file env_file);
      stream;
    }
  in
  let sock = dir // "s.sock" and probe_sock = dir // "k.sock" in
  let log = dir // "server.log" in
  (* One core serves, one drives: a server is pinned to one CPU this
     process may use, and this process to the other. Left to the
     scheduler, the server's two domains and the client trade places, and
     the server's CPU per request jumps between two levels 1.5x apart. *)
  let cpu_set =
    match Server_proc.allowed_cpus () with
    | c0 :: c1 :: _ -> [| c0; c1 |]
    | [ c0 ] -> [| c0 |]
    | [] -> die "no CPU in Cpus_allowed_list"
  in
  let server_cpu j = cpu_set.(j mod Array.length cpu_set) in
  let client_cpu j = cpu_set.((j + 1) mod Array.length cpu_set) in
  Server_proc.pin ~pid:(Unix.getpid ()) (client_cpu 0);
  let setup = ref [] and setup_wall = Clock.samples () in
  let n_spawn = ref 0 in
  let spawn ~cpu ~sock root =
    incr n_spawn;
    let t =
      Server_proc.spawn ~exe:a.server ~cpu ~env_file ~sock ~checkpoint_root:root ~log
        ~id:(Printf.sprintf "setup%d" !n_spawn)
    in
    setup := Clock.s_of_ns t.Server_proc.setup_cpu_ns :: !setup;
    Clock.add setup_wall t.Server_proc.setup_ns;
    t
  in
  let roots = Hashtbl.create 64 in
  let new_session ~id ~index ~len ~first ~last ~half_close ~resume ~root =
    Option.iter (fun r -> Hashtbl.replace roots id r) root;
    Drive.session ~id ~index
      ~lines:(Array.map Workload.request_line (stream ~index ~len))
      ~first ~last ~half_close ~resume
  in
  let main_root = if w.Workload.checkpoint then Some (dir // "main") else None in
  let hard_ns = Clock.now_ns () + 150_000_000_000 in
  let len = w.Workload.session_len in
  (* 1-2. spawn, closed loop *)
  let srv = spawn ~cpu:(server_cpu 0) ~sock main_root in
  let closed = Drive.stats () in
  let t_closed = Clock.now_ns () in
  let closed_end = t_closed + int_of_float (closed_share *. a.seconds *. 1e9) in
  (* Rounds of [round_sessions] whole sessions per connection;
     throughput_rps is the median round's rate, so a phase of the shared
     host that slows the server for part of the run moves a few rounds,
     not the reported number. *)
  let per_round = Workload.connections * w.Workload.round_sessions in
  let k = ref 0 and rates = ref [] and cpus = ref [] in
  while Clock.now_ns () < closed_end || List.length !rates < 3 do
    let t0 = Clock.now_ns () and d0 = closed.Drive.decisions and stop = !k + per_round in
    let cpu0 = Server_proc.cpu_ns srv in
    ignore
      (Drive.closed_loop closed ~slots:Workload.connections ~sock ~hard_ns
         ~next:(fun () ->
           if !k >= stop then None
           else begin
             let i = !k in
             incr k;
             Some
               (new_session ~id:(Printf.sprintf "c%d" i) ~index:i ~len ~first:0
                  ~last:len ~half_close:true ~resume:false ~root:main_root)
           end));
    rates :=
      (float_of_int (closed.Drive.decisions - d0) /. Clock.s_of_ns (Clock.now_ns () - t0))
      :: !rates;
    cpus :=
      (float_of_int (Server_proc.cpu_ns srv - cpu0) /. 1e3
      /. float_of_int (closed.Drive.decisions - d0))
      :: !cpus
  done;
  let closed_s = Clock.s_of_ns (Clock.now_ns () - t_closed) in
  let throughput = median !rates and closed_cpu_us = mid_mean !cpus in
  (* 3-4. The open loop runs in [probe_cycles] segments, and one crash-probe
     cycle follows each, on a server of its own (the main server idles
     meanwhile). Segment j runs the servers on CPU j mod 2 and this
     process on the other. Each virtual CPU of a shared host runs up to
     1.7x slower for seconds at a time, on its own; spreading every gated
     measurement over the whole phase and over both CPUs averages that. *)
  let n_open =
    max Workload.connections
      (int_of_float
         (Float.round
            (w.Workload.rate_rps *. (1.0 -. closed_share) *. a.seconds /. float_of_int len)))
  in
  let opened = Drive.stats () and probe = Drive.stats () in
  (* the main server's CPU per decision, read every [cpu_chunk] decisions *)
  let open_cpus = ref [] and cpu0 = ref (Server_proc.cpu_ns srv) in
  let tick () =
    let cpu = Server_proc.cpu_ns srv in
    open_cpus :=
      (float_of_int (cpu - !cpu0) /. 1e3 /. float_of_int w.Workload.cpu_chunk) :: !open_cpus;
    cpu0 := cpu
  in
  let resume_cpu = ref [] and parked_sessions = ref [] and open_s = ref 0.0 in
  let cycles = w.Workload.probe_cycles in
  for c = 0 to cycles - 1 do
    if Array.length cpu_set > 1 then begin
      Server_proc.pin ~pid:srv.Server_proc.pid (server_cpu c);
      Server_proc.pin ~pid:(Unix.getpid ()) (client_cpu c)
    end;
    let first = c * n_open / cycles and last = (c + 1) * n_open / cycles in
    open_s :=
      !open_s
      +. Drive.open_loop opened ~sock ~hard_ns ~rate_rps:w.Workload.rate_rps
           ~tick:(w.Workload.cpu_chunk, tick)
           ~sessions:
             (Array.init (last - first) (fun i ->
                  let m = first + i in
                  new_session ~id:(Printf.sprintf "o%d" m) ~index:m ~len ~first:0
                    ~last:len ~half_close:true ~resume:false ~root:main_root));
    let root = dir // Printf.sprintf "k%d" c in
    let psrv = spawn ~cpu:(server_cpu c) ~sock:probe_sock (Some root) in
    let ids =
      List.init Workload.connections (fun j ->
          (Printf.sprintf "k%d-%d" c j, 100_000 + (c * Workload.connections) + j))
    in
    let pending =
      ref
        (List.map
           (fun (id, index) ->
             new_session ~id ~index ~len:w.Workload.probe_len ~first:0
               ~last:w.Workload.kill_at ~half_close:false ~resume:false ~root:None)
           ids)
    in
    let parked =
      Drive.closed_loop probe ~slots:Workload.connections ~sock:probe_sock ~hard_ns
        ~next:(fun () ->
          match !pending with
          | [] -> None
          | s :: rest ->
              pending := rest;
              Some s)
    in
    if List.length parked <> Workload.connections then
      failwith "crash probe: a session did not reach the kill point";
    Server_proc.kill psrv;
    List.iter (fun (c : Drive.conn) -> Drive.close_fd c) parked;
    parked_sessions := List.map (fun (c : Drive.conn) -> c.Drive.s) parked @ !parked_sessions;
    let psrv = spawn ~cpu:(server_cpu c) ~sock:probe_sock (Some root) in
    (* One session at a time, each resume measured alone: the server's
       CPU from the hello to the last re-emitted line. *)
    let settle () =
      Unix.sleepf 0.002;
      let meter = Server_proc.cpu_meter psrv () in
      fun () -> resume_cpu := float_of_int (meter ()) *. 1e-6 :: !resume_cpu
    in
    Drive.open_probe ~settle probe ~sock:probe_sock ~hard_ns
      (List.map
         (fun (id, index) ->
           new_session ~id ~index ~len:w.Workload.probe_len
             ~first:w.Workload.kill_at ~last:w.Workload.probe_len
             ~half_close:true ~resume:true ~root:(Some root))
         ids);
    Server_proc.kill psrv
  done;
  let open_s = !open_s in
  (* session-open probe (see Drive.open_probe) *)
  let opener = Drive.stats () in
  Drive.open_probe opener ~sock ~hard_ns
    (List.init open_probes (fun i ->
         new_session ~id:(Printf.sprintf "p%d" i) ~index:(200_000 + i) ~len:1
           ~first:0 ~last:1 ~half_close:true ~resume:false ~root:main_root));
  let rss = Server_proc.peak_rss_mib srv in
  Server_proc.kill srv;
  while List.length !setup < 9 do
    Server_proc.kill (spawn ~cpu:(server_cpu 0) ~sock None)
  done;
  (* 5. correctness *)
  mkdir_p (dir // "ref");
  let sessions =
    closed.Drive.finished @ opened.Drive.finished @ opener.Drive.finished
    @ probe.Drive.finished
    @ !parked_sessions
  in
  let verdict =
    Reference.check rctx sessions ~ref_dir:(dir // "ref")
      ~server_log:(fun (s : Drive.session) ->
        match Hashtbl.find_opt roots s.Drive.id with
        | Some root when s.Drive.half_close ->
            Some
              (In_channel.with_open_bin (root // s.Drive.id // "decisions.jsonl")
                 In_channel.input_all)
        | _ -> None)
  in
  (* Gated: the server's CPU time per request and to start, which leave
     out the time the host takes the CPU away (steal) and the wake-up
     latency a client also waits; and its memory. *)
  let e2e =
    [
      ("open_cpu_us_per_req", mid_mean !open_cpus, "us",
        Printf.sprintf "open loop at %.0f req/s, middle-half mean of %d chunks of %d decisions"
          w.Workload.rate_rps (List.length !open_cpus) w.Workload.cpu_chunk);
      ("setup_s", median !setup, "s",
        Printf.sprintf "server CPU from spawn to first ack, median, n=%d" (List.length !setup));
      ("server_rss_mb", rss, "MiB", "VmHWM of the main server");
    ]
  in
  (* Reported as metrics by the traced run only: the wall-clock numbers a
     client waits, which on a shared VM follow the host's steal and
     wake-up latency as much as the program; the saturated server's CPU,
     where its two domains share one CPU and their stop-the-world
     handshakes wait on the scheduler; and the resume CPU, a median of
     short events in fresh processes. Their ten-run spreads here were
     0.1-0.25 of the median. *)
  let ungated =
    [
      ("throughput_rps", throughput, "req/s",
        Printf.sprintf "closed loop, median of %d rounds; overall %d decisions in %.3f s"
          (List.length !rates) closed.Drive.decisions closed_s);
      ("latency_p50_s", pct_s opened.Drive.latency 0.5, "s",
        Printf.sprintf "open loop, n=%d" (Clock.count opened.Drive.latency));
      ("latency_p99_s", pct_s opened.Drive.latency 0.99, "s",
        Printf.sprintf "open loop, n=%d" (Clock.count opened.Drive.latency));
      ("session_open_p50_s", pct_s opener.Drive.opens 0.5, "s",
        Printf.sprintf "n=%d" (Clock.count opener.Drive.opens));
      ("resume_p50_s", pct_s probe.Drive.resumes 0.5, "s",
        Printf.sprintf "n=%d" (Clock.count probe.Drive.resumes));
      ("resume_cpu_ms", median !resume_cpu, "ms",
        Printf.sprintf "server CPU, hello -> last re-emitted line, median, n=%d"
          (List.length !resume_cpu));
      ("setup_wall_s", pct_s setup_wall 0.5, "s",
        Printf.sprintf "spawn to first ack, median, n=%d" (Clock.count setup_wall));
      ("closed_cpu_us_per_req", closed_cpu_us, "us",
        Printf.sprintf "server CPU, closed loop, middle-half mean of %d rounds"
          (List.length !cpus));
    ]
  in
  let failed_ratio = float_of_int verdict.Reference.failed /. float_of_int (max 1 verdict.Reference.attempted) in
  Printf.printf "perfbench %s seed %d: %d sessions checked\n" w.Workload.name a.seed (List.length sessions);
  Printf.printf
    "open loop: %.0f req/s offered for %.3f s; lateness p50 %.1f us, p99 %.1f us, max %.1f us; max backlog %d requests\n"
    w.Workload.rate_rps open_s
    (Clock.percentile opened.Drive.lateness 0.5 /. 1e3)
    (Clock.percentile opened.Drive.lateness 0.99 /. 1e3)
    (Clock.percentile opened.Drive.lateness 1.0 /. 1e3)
    opened.Drive.max_backlog;
  List.iter
    (fun (name, v, unit, note) -> Printf.printf "%s%s = %.6g %s (%s)\n" (if a.trace then "traced-run " else "") name v unit note)
    (e2e @ ungated);
  Printf.printf "failed_ratio = %.6g share (%d of %d requests)\n" failed_ratio
    verdict.Reference.failed verdict.Reference.attempted;
  List.iter (fun e -> Printf.printf "FAILED: %s\n" e) verdict.Reference.errors;
  (* 6. traced replay *)
  let metrics, extra_failures =
    if not a.trace then (List.map (fun (n, v, u, _) -> (n, v, u)) e2e, [])
    else begin
      let r =
        Traced.run
          { Traced.r = rctx; n_sites = Instance.n_sites loaded;
            n_commodities = Instance.n_commodities loaded; dir = dir // "trace" }
          w
      in
      Traced.write_spans r.Traced.spans (out_dir // Printf.sprintf "spans-%s.jsonl" w.Workload.name);
      let rtt_p50 = Clock.percentile opened.Drive.latency 0.5 in
      let metrics =
        List.map (fun (n, v, u, _) -> (n, v, u)) ungated
        @ r.Traced.metrics
        @ [ ("transport.residual_p50_ns", rtt_p50 -. r.Traced.inproc_ns_per_req, "ns") ]
      in
      print_endline r.Traced.reconcile_line;
      List.iter (fun (n, v, u) -> Printf.printf "%s = %.6g %s\n" n v u) metrics;
      List.iter (fun e -> Printf.printf "FAILED: %s\n" e) r.Traced.mismatches;
      (metrics, r.Traced.mismatches)
    end
  in
  let extra_failures =
    extra_failures
    @ List.filter_map
        (fun (n, v, _) ->
          if Float.is_finite v then None else Some (n ^ " is not a finite number"))
        metrics
  in
  let correct = verdict.Reference.failed = 0 && extra_failures = [] in
  let json_num v =
    if not (Float.is_finite v) then "0"
    else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.17g" v
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct verdict.Reference.attempted
    (verdict.Reference.failed + List.length extra_failures)
    (String.concat ", "
       (List.map
          (fun (n, v, u) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (json_num v) u)
          metrics));
  correct

let () =
  let a = parse_args () in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit Server_proc.kill_all;
  match main a with
  | true -> exit 0
  | false -> exit 1
  | exception e ->
      Printf.eprintf "perfbench: %s\n%!" (Printexc.to_string e);
      exit 1
