(* The traced replay: the per-layer numbers, measured from outside the
   program. The same request streams the socket run served are replayed
   in process twice per session:

   - pass W calls the serve layer as the server does — Session.create,
     Session.handle_batch in batches of [Workload.window], Session.close —
     and times only those whole calls (plus the GC counters around them);
   - pass L makes the calls Session.handle_batch makes, in its order, and
     times each one as a span: WAL batch (Wire.request_to_json +
     Checkpoint.append_wal_batch), then per request ALGO.step and the
     decision-record assembly (and its decision-log encoding), then the
     decision batch (Checkpoint.append_decision_batch), then ALGO.snapshot
     + Checkpoint.write_snapshot when the batch crosses the cadence. Around
     each batch it also times what the server does outside the session:
     Wire.parse_request on each request line and the socket encoding of
     each decision.

   Pass L must produce the same decision bytes as pass W, and its layer
   times must add up to pass W's handle_batch time within [tolerance]:
   together they show the replay measures the program, not a fork of it.
   A crash sample runs pass L with a checkpoint up to the probe's kill
   point, abandons the session as a SIGKILL would, and times
   Checkpoint.open_resume, ALGO.restore and Session.resume on it. *)

open Omflp_core
open Omflp_serve
open Omflp_obs

let tolerance = 0.10

(* ---------- spans: kept in memory, written once at the end ---------- *)

type spans = {
  mutable name : string array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable session : string array;
  mutable index : int array;  (* -1: not a per-request span *)
  mutable n : int;
}

let spans () =
  {
    name = Array.make 4096 "";
    start = Array.make 4096 0;
    stop = Array.make 4096 0;
    parent = Array.make 4096 (-1);
    session = Array.make 4096 "";
    index = Array.make 4096 (-1);
    n = 0;
  }

let grow a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let open_span sp name ~parent ~session ~index =
  if sp.n = Array.length sp.name then begin
    sp.name <- grow sp.name "";
    sp.start <- grow sp.start 0;
    sp.stop <- grow sp.stop 0;
    sp.parent <- grow sp.parent (-1);
    sp.session <- grow sp.session "";
    sp.index <- grow sp.index (-1)
  end;
  let id = sp.n in
  sp.n <- id + 1;
  sp.name.(id) <- name;
  sp.parent.(id) <- parent;
  sp.session.(id) <- session;
  sp.index.(id) <- index;
  sp.start.(id) <- Clock.now_ns ();
  id

(* Closes span [id]; returns its duration in ns. *)
let close_span sp id =
  let t = Clock.now_ns () in
  sp.stop.(id) <- t;
  t - sp.start.(id)

let write_spans sp path =
  let t0 = if sp.n = 0 then 0 else sp.start.(0) in
  Out_channel.with_open_bin path (fun oc ->
      for i = 0 to sp.n - 1 do
        Printf.fprintf oc
          "{\"id\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%s,\"session\":%S,\"index\":%s}\n"
          i sp.name.(i) (sp.start.(i) - t0) (sp.stop.(i) - t0)
          (if sp.parent.(i) < 0 then "null" else string_of_int sp.parent.(i))
          sp.session.(i)
          (if sp.index.(i) < 0 then "null" else string_of_int sp.index.(i))
      done)

(* ---------- accumulators ---------- *)

type acc = {
  sp : spans;
  (* main sample, pass W *)
  w_open : Clock.samples;
  w_close : Clock.samples;
  mutable w_batch_ns : int;
  mutable w_batches : int;
  mutable w_requests : int;
  mutable gc_minor : float;
  mutable gc_major_words : float;
  mutable gc_major_collections : int;
  (* main sample, pass L *)
  parse : Clock.samples;
  encode : Clock.samples;
  mutable decision_bytes : int;
  step : Clock.samples;
  mutable step_minor_words : float;
  mutable l_inside_ns : int;  (* every layer call inside handle_batch *)
  mutable l_self_ns : int;  (* batch spans minus their other-layer children *)
  mutable pd_loop_iters : int;
  mutable index_cell_updates : int;
  mutable dist_rows_built : int;
  mutable dist_cache_hits : int;
  (* every checkpointed pass L *)
  mutable ck_requests : int;
  mutable wal_ns : int;
  mutable dec_ns : int;
  mutable ck_bytes : int;
  snap_write : Clock.samples;
  snap_encode : Clock.samples;
  mutable snap_bytes : int;
  (* crash sample *)
  resume_open : Clock.samples;
  resume_replay : Clock.samples;
  restore : Clock.samples;
  mutable replayed : int;
  mutable mismatches : string list;
}

let acc () =
  {
    sp = spans ();
    w_open = Clock.samples ();
    w_close = Clock.samples ();
    w_batch_ns = 0;
    w_batches = 0;
    w_requests = 0;
    gc_minor = 0.0;
    gc_major_words = 0.0;
    gc_major_collections = 0;
    parse = Clock.samples ();
    encode = Clock.samples ();
    decision_bytes = 0;
    step = Clock.samples ();
    step_minor_words = 0.0;
    l_inside_ns = 0;
    l_self_ns = 0;
    pd_loop_iters = 0;
    index_cell_updates = 0;
    dist_rows_built = 0;
    dist_cache_hits = 0;
    ck_requests = 0;
    wal_ns = 0;
    dec_ns = 0;
    ck_bytes = 0;
    snap_write = Clock.samples ();
    snap_encode = Clock.samples ();
    snap_bytes = 0;
    resume_open = Clock.samples ();
    resume_replay = Clock.samples ();
    restore = Clock.samples ();
    replayed = 0;
    mismatches = [];
  }

type ctx = {
  r : Reference.ctx;
  n_sites : int;
  n_commodities : int;
  dir : string;  (* scratch for the replay's checkpoints *)
}

let time f =
  let t0 = Clock.now_ns () in
  let x = f () in
  (x, Clock.now_ns () - t0)

let chunks reqs =
  let out = ref [] in
  Reference.batches reqs (fun b -> out := b :: !out);
  List.rev !out

let new_checkpoint ctx dir =
  let (module A : Algo_intf.ALGO) = ctx.r.Reference.algo in
  Checkpoint.create ~dir ~algo:A.name ~seed:(Some 1)
    ~instance_md5:ctx.r.Reference.instance_md5
    ~snapshot_every:Workload.snapshot_every

(* ---------- pass W: the serve layer's own entry points ---------- *)

(* Each pass is opened on a stream and returns [(step, finish)]: [step]
   serves one batch, [finish] closes the session and returns the
   canonical decision bytes. [run] alternates the two passes batch
   by batch, so both see the same state of the host. *)

let gc_delta a f =
  let g0 = Gc.quick_stat () in
  let m0 = Gc.minor_words () in
  let x = f () in
  let m1 = Gc.minor_words () in
  let g1 = Gc.quick_stat () in
  a.gc_minor <- a.gc_minor +. (m1 -. m0);
  a.gc_major_words <- a.gc_major_words +. (g1.Gc.major_words -. g0.Gc.major_words);
  a.gc_major_collections <-
    a.gc_major_collections + (g1.Gc.major_collections - g0.Gc.major_collections);
  x

let pass_w ctx a ~dir =
  let s, open_ns =
    gc_delta a (fun () ->
        time (fun () ->
            let checkpoint = Option.map (new_checkpoint ctx) dir in
            Session.create ~algo:ctx.r.Reference.algo ~seed:1 ?checkpoint
              ctx.r.Reference.env))
  in
  Clock.add a.w_open open_ns;
  let out = Buffer.create 4096 in
  let step b =
    let ds, ns = gc_delta a (fun () -> time (fun () -> Session.handle_batch s b)) in
    a.w_batch_ns <- a.w_batch_ns + ns;
    a.w_batches <- a.w_batches + 1;
    a.w_requests <- a.w_requests + Array.length b;
    Array.iter
      (fun d ->
        Wire.decision_to_buffer out d;
        Buffer.add_char out '\n')
      ds
  in
  let finish () =
    let (), close_ns = gc_delta a (fun () -> time (fun () -> Session.close s)) in
    Clock.add a.w_close close_ns;
    Buffer.contents out
  in
  (step, finish)

(* ---------- pass L: the same calls, one span each ---------- *)

let counter_names =
  [ "pd.loop_iters"; "index.cell_updates"; "metric.dist_cache.rows_built";
    "metric.dist_cache.hits" ]

let counters () = List.map (fun n -> Metrics.value (Metrics.counter n)) counter_names

(* [lines] are the stream's request lines. [main] sessions feed the
   wire/algo/session numbers; [kill] abandons the checkpoint without the
   closing snapshot, as a SIGKILL would. *)
let pass_l ctx a ~label ~main ~kill ~dir lines =
  let (module A : Algo_intf.ALGO) = ctx.r.Reference.algo in
  let sp = a.sp in
  let span name ~parent ~index f =
    let id = open_span sp name ~parent ~session:label ~index in
    let x = f () in
    (x, close_span sp id)
  in
  let root = open_span sp "session" ~parent:(-1) ~session:label ~index:(-1) in
  let (cp, st), _ =
    span "session.open" ~parent:root ~index:(-1) (fun () ->
        let cp = Option.map (new_checkpoint ctx) dir in
        (cp, A.create ~seed:1 ctx.r.Reference.env))
  in
  let count = ref 0 and seen = ref 0 in
  let wal_buf = Buffer.create 1024 and dec_buf = Buffer.create 4096 in
  let sock_buf = Buffer.create 512 and canon = Buffer.create 4096 in
  (* ALGO.snapshot + Checkpoint.write_snapshot; returns the ns spent *)
  let snapshot ~parent =
    match cp with
    | None -> 0
    | Some cp ->
        let blob, enc =
          span "snapshot.encode" ~parent ~index:(-1) (fun () -> A.snapshot st)
        in
        let (), wr =
          span "checkpoint.snapshot_write" ~parent ~index:(-1) (fun () ->
              Checkpoint.write_snapshot cp ~count:!count blob)
        in
        Clock.add a.snap_encode enc;
        Clock.add a.snap_write wr;
        a.snap_bytes <- a.snap_bytes + String.length blob;
        a.ck_bytes <- a.ck_bytes + String.length blob;
        enc + wr
  in
  let pos = ref 0 in
  let step batch =
    let c0 = counters () in
    if main then Metrics.set_enabled true;
    let n = Array.length batch in
    let first = !pos in
    pos := first + n;
    (* reader thread: parse each line *)
    Array.iteri
      (fun i r ->
        let parsed, ns =
          span "wire.parse" ~parent:root ~index:(first + i) (fun () ->
              Wire.parse_request ~n_sites:ctx.n_sites
                ~n_commodities:ctx.n_commodities lines.(first + i))
        in
        (match parsed with
        | Ok r' when r' = r -> ()
        | _ -> a.mismatches <- (label ^ ": wire parse disagrees") :: a.mismatches);
        if main then Clock.add a.parse ns)
      batch;
    (* worker: Session.handle_batch's calls, in its order *)
    let bid = open_span sp "session.batch" ~parent:root ~session:label ~index:first in
    let inside = ref 0 and assembly = ref 0 in
    (match cp with
    | None -> ()
    | Some cp ->
        let (), ns =
          span "checkpoint.wal" ~parent:bid ~index:first (fun () ->
              Buffer.clear wal_buf;
              Array.iteri
                (fun i r ->
                  Buffer.add_string wal_buf
                    (Wire.request_to_json ~index:(!count + i) r);
                  Buffer.add_char wal_buf '\n')
                batch;
              Checkpoint.append_wal_batch cp wal_buf)
        in
        a.wal_ns <- a.wal_ns + ns;
        a.ck_bytes <- a.ck_bytes + Buffer.length wal_buf;
        inside := !inside + ns);
    Buffer.clear dec_buf;
    let ds =
      Array.mapi
        (fun i r ->
          let index = first + i in
          let mw0 = Gc.minor_words () in
          let service, step_ns =
            span "algo.step" ~parent:bid ~index (fun () -> A.step st r)
          in
          let mw1 = Gc.minor_words () in
          let d, asm_ns =
            span "session.assemble" ~parent:bid ~index (fun () ->
                let store = A.store st in
                let n_fac = Facility_store.n_facilities store in
                let opened =
                  List.init (n_fac - !seen) (fun k ->
                      Facility_store.facility store (!seen + k))
                in
                let d =
                  {
                    Wire.index = !count;
                    site = r.Omflp_instance.Request.site;
                    demand = Omflp_commodity.Cset.elements r.Omflp_instance.Request.demand;
                    service;
                    opened;
                    construction = Facility_store.construction_cost store;
                    assignment = Facility_store.assignment_cost store;
                    total = Facility_store.total_cost store;
                  }
                in
                seen := n_fac;
                incr count;
                d)
          in
          inside := !inside + step_ns + asm_ns;
          assembly := !assembly + asm_ns;
          if main then begin
            Clock.add a.step step_ns;
            a.step_minor_words <- a.step_minor_words +. (mw1 -. mw0)
          end;
          (match cp with
          | None -> ()
          | Some _ ->
              let (), ns =
                span "checkpoint.decision_encode" ~parent:bid ~index (fun () ->
                    Wire.decision_to_buffer dec_buf d;
                    Buffer.add_char dec_buf '\n')
              in
              a.dec_ns <- a.dec_ns + ns;
              inside := !inside + ns);
          d)
        batch
    in
    (match cp with
    | Some cp when Buffer.length dec_buf > 0 ->
        let (), ns =
          span "checkpoint.decisions" ~parent:bid ~index:first (fun () ->
              Checkpoint.append_decision_batch cp dec_buf)
        in
        a.dec_ns <- a.dec_ns + ns;
        a.ck_bytes <- a.ck_bytes + Buffer.length dec_buf;
        inside := !inside + ns
    | _ -> ());
    if
      cp <> None
      && !count / Workload.snapshot_every > (!count - n) / Workload.snapshot_every
    then inside := !inside + snapshot ~parent:bid;
    let batch_ns = close_span sp bid in
    if cp <> None then a.ck_requests <- a.ck_requests + n;
    if main then begin
      a.l_inside_ns <- a.l_inside_ns + !inside;
      a.l_self_ns <- a.l_self_ns + batch_ns - (!inside - !assembly)
    end;
    (* worker: each decision's socket line *)
    Array.iter
      (fun d ->
        let (), ns =
          span "wire.encode" ~parent:root ~index:d.Wire.index (fun () ->
              Buffer.clear sock_buf;
              Wire.decision_to_buffer ~latency_s:1e-4 sock_buf d)
        in
        Wire.decision_to_buffer canon d;
        Buffer.add_char canon '\n';
        if main then begin
          Clock.add a.encode ns;
          a.decision_bytes <- a.decision_bytes + Buffer.length sock_buf + 1
        end)
      ds;
    if main then begin
      Metrics.set_enabled false;
      match List.map2 ( - ) (counters ()) c0 with
      | [ loops; cells; rows; hits ] ->
          a.pd_loop_iters <- a.pd_loop_iters + loops;
          a.index_cell_updates <- a.index_cell_updates + cells;
          a.dist_rows_built <- a.dist_rows_built + rows;
          a.dist_cache_hits <- a.dist_cache_hits + hits
      | _ -> assert false
    end
  in
  let finish () =
    (match cp with
    | None -> ()
    | Some cp when kill -> Checkpoint.close cp
    | Some cp ->
        let cid = open_span sp "session.close" ~parent:root ~session:label ~index:(-1) in
        ignore (snapshot ~parent:cid);
        Checkpoint.close cp;
        ignore (close_span sp cid));
    ignore (close_span sp root);
    Buffer.contents canon
  in
  (step, finish)

(* ---------- crash sample: open_resume, restore, Session.resume ---------- *)

let crash_and_resume ctx a ~label ~dir ~kill_at reqs lines =
  let (module A : Algo_intf.ALGO) = ctx.r.Reference.algo in
  let step, finish = pass_l ctx a ~label ~main:false ~kill:true ~dir:(Some dir) lines in
  List.iter step (chunks (Array.sub reqs 0 kill_at));
  ignore (finish ());
  let sp = a.sp in
  let root = open_span sp "resume" ~parent:(-1) ~session:label ~index:(-1) in
  let sid = open_span sp "resume.open" ~parent:root ~session:label ~index:(-1) in
  let rz =
    Checkpoint.open_resume ~dir ~n_sites:ctx.n_sites
      ~n_commodities:ctx.n_commodities ~instance_md5:ctx.r.Reference.instance_md5
  in
  Clock.add a.resume_open (close_span sp sid);
  (match rz.Checkpoint.snapshot with
  | None -> ()
  | Some (_, blob) ->
      let sid = open_span sp "snapshot.restore" ~parent:root ~session:label ~index:(-1) in
      ignore (A.restore ctx.r.Reference.env blob);
      Clock.add a.restore (close_span sp sid));
  let start = match rz.Checkpoint.snapshot with Some (c, _) -> c | None -> 0 in
  let sid = open_span sp "resume.replay" ~parent:root ~session:label ~index:(-1) in
  let s, reemit = Session.resume ~algo:ctx.r.Reference.algo rz ctx.r.Reference.env in
  Clock.add a.resume_replay (close_span sp sid);
  ignore (close_span sp root);
  a.replayed <- a.replayed + (Session.count s - start);
  if reemit <> [] || Session.count s <> kill_at then
    a.mismatches <- (label ^ ": resume did not continue at the kill point") :: a.mismatches;
  Session.close s

(* ---------- the replay ---------- *)

type result = {
  metrics : (string * float * string) list;
  inproc_ns_per_req : float;  (* parse + handle_batch share + socket encode *)
  spans : spans;
  reconcile_line : string;
  mismatches : string list;
}

let run ctx (w : Workload.t) =
  let a = acc () in
  let rec mkdir d =
    if not (Sys.file_exists d) then begin
      mkdir (Filename.dirname d);
      Unix.mkdir d 0o755
    end
  in
  mkdir ctx.dir;
  for i = 0 to w.Workload.trace_sessions - 1 do
    let reqs = ctx.r.Reference.stream ~index:i ~len:w.Workload.session_len in
    let lines = Array.map Workload.request_line reqs in
    let label = Printf.sprintf "t%d" i in
    let dir tag =
      if w.Workload.checkpoint then
        Some (Filename.concat ctx.dir (Printf.sprintf "%s-%s" label tag))
      else None
    in
    let w_step, w_finish = pass_w ctx a ~dir:(dir "w") in
    let l_step, l_finish = pass_l ctx a ~label ~main:true ~kill:false ~dir:(dir "l") lines in
    (* alternate which pass goes first, so neither always runs warmer *)
    List.iteri
      (fun k b ->
        if (i + k) mod 2 = 0 then (w_step b; l_step b) else (l_step b; w_step b))
      (chunks reqs);
    let bw = w_finish () in
    let bl = l_finish () in
    if bw <> bl then
      a.mismatches <- (label ^ ": layered decisions differ from Session.handle_batch") :: a.mismatches;
    match (dir "w", dir "l") with
    | Some dw, Some dl ->
        let read d = In_channel.with_open_bin (Filename.concat d "decisions.jsonl") In_channel.input_all in
        if read dw <> read dl then
          a.mismatches <- (label ^ ": layered decision log differs") :: a.mismatches
    | _ -> ()
  done;
  for i = 0 to w.Workload.trace_resumes - 1 do
    let index = 100_000 + i in
    let reqs = ctx.r.Reference.stream ~index ~len:w.Workload.probe_len in
    let lines = Array.map Workload.request_line reqs in
    crash_and_resume ctx a
      ~label:(Printf.sprintf "r%d" i)
      ~dir:(Filename.concat ctx.dir (Printf.sprintf "r%d" i))
      ~kill_at:w.Workload.kill_at reqs lines
  done;
  let n = float_of_int a.w_requests in
  let fi = float_of_int in
  let w_total = fi a.w_batch_ns in
  let l_inside = fi a.l_inside_ns in
  let gap = (l_inside -. w_total) /. w_total in
  if Float.abs gap > tolerance then
    a.mismatches <-
      Printf.sprintf "layer sum %.0f ns vs handle_batch %.0f ns: %+.1f%% is outside +-%.0f%%"
        l_inside w_total (100.0 *. gap) (100.0 *. tolerance)
      :: a.mismatches;
  let reconcile_line =
    Printf.sprintf
      "reconcile: %d requests; layer sum %.1f ns/req vs Session.handle_batch %.1f ns/req (%+.2f%%, tolerance +-%.0f%%); decision bytes %s"
      a.w_requests (l_inside /. n) (w_total /. n) (100.0 *. gap)
      (100.0 *. tolerance)
      (if a.mismatches = [] then "equal" else "DIFFER")
  in
  let ck = fi (max 1 a.ck_requests) in
  let metrics =
    [
      ("wire.parse_ns", Clock.mean a.parse, "ns");
      ("wire.encode_ns", Clock.mean a.encode, "ns");
      ("wire.decision_bytes", fi a.decision_bytes /. fi (Clock.count a.encode), "bytes");
      ("session.open_ns", Clock.percentile a.w_open 0.5, "ns");
      ("session.batch_ns", w_total /. fi a.w_batches, "ns");
      ("session.self_ns_per_req", fi a.l_self_ns /. n, "ns");
      ("session.close_ns", Clock.percentile a.w_close 0.5, "ns");
      ("algo.step_p50_ns", Clock.percentile a.step 0.5, "ns");
      ("algo.step_p99_ns", Clock.percentile a.step 0.99, "ns");
      ("algo.minor_words_per_step", a.step_minor_words /. fi (Clock.count a.step), "words");
      ("algo.pd_loop_iters", fi a.pd_loop_iters, "count");
      ("algo.index_cell_updates", fi a.index_cell_updates, "count");
      ("algo.dist_rows_built", fi a.dist_rows_built, "count");
      ("algo.dist_cache_hits", fi a.dist_cache_hits, "count");
      ("checkpoint.wal_ns_per_req", fi a.wal_ns /. ck, "ns");
      ("checkpoint.decisions_ns_per_req", fi a.dec_ns /. ck, "ns");
      ("checkpoint.snapshot_write_ns", Clock.mean a.snap_write, "ns");
      ("checkpoint.snapshots", fi (Clock.count a.snap_write), "count");
      ("checkpoint.bytes_per_req", fi a.ck_bytes /. ck, "bytes");
      ("snapshot.encode_ns", Clock.mean a.snap_encode, "ns");
      ("snapshot.bytes", fi a.snap_bytes /. fi (Clock.count a.snap_encode), "bytes");
      ("snapshot.restore_ns", Clock.percentile a.restore 0.5, "ns");
      ("resume.open_ns", Clock.percentile a.resume_open 0.5, "ns");
      ("resume.replay_ns", Clock.percentile a.resume_replay 0.5, "ns");
      ("resume.replayed", fi a.replayed, "count");
      ("gc.minor_words_per_req", a.gc_minor /. n, "words");
      ("gc.major_collections_per_10k", fi a.gc_major_collections *. 1e4 /. n, "count");
      ("gc.major_words_per_10k", a.gc_major_words *. 1e4 /. n, "words");
    ]
  in
  {
    metrics;
    inproc_ns_per_req = Clock.mean a.parse +. (w_total /. n) +. Clock.mean a.encode;
    spans = a.sp;
    reconcile_line;
    mismatches = List.rev a.mismatches;
  }
