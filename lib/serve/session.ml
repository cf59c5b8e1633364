open Omflp_commodity
open Omflp_instance
open Omflp_core
open Omflp_obs

type state = State : (module Algo_intf.ALGO with type t = 'a) * 'a -> state

type t = {
  state : state;
  checkpoint : Checkpoint.t option;
  mutable snapshot_count : int;
      (* count the last snapshot this session wrote covers; -1 none *)
  (* Reused per-session scratch for batched WAL/decision appends; a
     session is stepped by the one loop that owns its connection, so no
     lock. *)
  wal_buf : Buffer.t;
  dec_buf : Buffer.t;
}

let requests_c = Metrics.counter "serve.requests"
let resume_c = Metrics.counter "serve.resume"
let replayed_c = Metrics.counter "serve.replayed"
let snapshots_c = Metrics.counter "serve.snapshots"
let step_t = Metrics.timer "serve.step"

let fail fmt = Printf.ksprintf failwith fmt

let count t =
  match t.state with
  | State ((module A), st) -> Facility_store.n_requests (A.store st)

let running_costs t =
  match t.state with
  | State ((module A), st) ->
      let store = A.store st in
      ( Facility_store.construction_cost store,
        Facility_store.assignment_cost store,
        Facility_store.total_cost store )

let create ~algo ?seed ?checkpoint env =
  let (module A : Algo_intf.ALGO) = algo in
  (match checkpoint with
  | Some cp ->
      if Checkpoint.algo cp <> A.name then
        fail "Session.create: checkpoint belongs to %s, serving %s"
          (Checkpoint.algo cp) A.name
  | None -> ());
  (* Family capability check up front: a mismatched algorithm must refuse
     at session open, never crash mid-run. *)
  Problem_env.require ~algo:A.name ~family:A.family env;
  {
    state = State ((module A), A.create ?seed env);
    checkpoint;
    snapshot_count = -1;
    wal_buf = Buffer.create 256;
    dec_buf = Buffer.create 1024;
  }

(* One algorithm step plus decision-record assembly; WAL and decision-log
   appends are the caller's business (live vs replay differ there). *)
let step_only t (r : Request.t) =
  match t.state with
  | State ((module A), st) ->
      let store = A.store st in
      let index = Facility_store.n_requests store in
      let seen = Facility_store.n_facilities store in
      let t0 = Metrics.now () in
      let service = A.step st r in
      Metrics.record_span step_t (Metrics.now () -. t0);
      let opened =
        List.init (Facility_store.n_facilities store - seen) (fun i ->
            Facility_store.facility store (seen + i))
      in
      {
        Wire.index;
        site = r.site;
        demand = Cset.elements r.demand;
        service;
        opened;
        construction = Facility_store.construction_cost store;
        assignment = Facility_store.assignment_cost store;
        total = Facility_store.total_cost store;
      }

(* The state's next snapshot segment, with the count it covers. *)
let encode_snapshot t =
  match t.state with State ((module A), st) -> (count t, A.snapshot st)

let write_snapshot t cp (count, segment) =
  Checkpoint.write_snapshot cp ~count segment;
  t.snapshot_count <- count;
  Metrics.incr snapshots_c

(* Decision lines queue in [dec_buf]; [flush_decisions] makes them
   durable with one append. *)
let log_decision t d =
  Wire.decision_to_buffer t.dec_buf d;
  Buffer.add_char t.dec_buf '\n'

let flush_decisions t =
  match t.checkpoint with
  | Some cp when Buffer.length t.dec_buf > 0 ->
      Checkpoint.append_decision_batch cp t.dec_buf;
      Buffer.clear t.dec_buf
  | _ -> ()

(* The one entry point that steps and logs requests: the WAL lines of
   the whole batch are made durable in one flush before any step runs,
   every request is then stepped in arrival order, and the decision
   lines land in one flush at the end, followed by the snapshot segments
   of the cadence points the batch crossed. Each segment is encoded at
   its cadence point, so how a stream is cut into batches (one request
   each on stdin, up to a turn's 32 lines on a socket) never changes a
   logged byte, snapshot file included. A crash or a failing step
   mid-batch leaves the standard crash-window shape (WAL ahead of
   decisions); the decisions of the stepped prefix and the segments
   encoded before the failure are written before the error propagates,
   so the durable log never falls behind a snapshot and the snapshot
   file stays a chain the state's next segment continues. Decision
   records observe the per-request cost evolution, so only the IO is
   batched: each request is its own [step]. *)
let handle_batch t (reqs : Request.t array) =
  let n = Array.length reqs in
  if n = 0 then [||]
  else begin
    Metrics.add requests_c n;
    (match t.checkpoint with
    | Some cp ->
        Buffer.clear t.wal_buf;
        let first = count t in
        Array.iteri
          (fun i r ->
            Wire.request_to_buffer ~index:(first + i) t.wal_buf r;
            Buffer.add_char t.wal_buf '\n')
          reqs;
        Checkpoint.append_wal_batch cp t.wal_buf
    | None -> ());
    Buffer.clear t.dec_buf;
    let ds_rev = ref [] and segments_rev = ref [] in
    let finish () =
      flush_decisions t;
      match t.checkpoint with
      | Some cp -> List.iter (write_snapshot t cp) (List.rev !segments_rev)
      | None -> ()
    in
    (try
       Array.iter
         (fun r ->
           let d = step_only t r in
           (match t.checkpoint with
           | Some cp ->
               log_decision t d;
               if count t mod Checkpoint.snapshot_every cp = 0 then
                 segments_rev := encode_snapshot t :: !segments_rev
           | None -> ());
           if Trace_sink.installed () then
             Trace_sink.emit_current ~kind:"serve.step"
               [
                 ("index", Trace_sink.Int d.Wire.index);
                 ("site", Trace_sink.Int d.Wire.site);
                 ("total", Trace_sink.Float d.Wire.total);
               ];
           ds_rev := d :: !ds_rev)
         reqs
     with e ->
       finish ();
       raise e);
    finish ();
    let ds = Array.make n (List.hd !ds_rev) in
    List.iteri (fun i d -> ds.(n - 1 - i) <- d) !ds_rev;
    ds
  end

let resume ~algo (rz : Checkpoint.resume) env =
  let (module A : Algo_intf.ALGO) = algo in
  if Checkpoint.algo rz.cp <> A.name then
    fail "Session.resume: checkpoint belongs to %s, serving %s"
      (Checkpoint.algo rz.cp) A.name;
  Problem_env.require ~algo:A.name ~family:A.family env;
  Metrics.incr resume_c;
  let st =
    match rz.snapshot with
    | Some (covered, blob) ->
        let st = A.restore env blob in
        let served = Facility_store.n_requests (A.store st) in
        if served <> covered then
          fail
            "Session.resume: the snapshot header covers %d requests but the \
             state it restores served %d"
            covered served;
        st
    | None -> A.create ?seed:(Checkpoint.seed rz.cp) env
  in
  let t =
    {
      state = State ((module A), st);
      checkpoint = Some rz.cp;
      snapshot_count = -1;
      wal_buf = Buffer.create 256;
      dec_buf = Buffer.create 1024;
    }
  in
  let start = count t in
  (* Replay the WAL suffix the snapshot does not cover. Decisions already
     durable (index < n_decisions) are recomputed and cross-checked byte
     for byte against the durable log — a snapshot that restores into a
     different state (corruption, a planted blob, a nondeterministic
     environment) would otherwise silently continue a decision stream
     that contradicts what the client already saw. The rest were lost in
     the crash window: they are handed back for re-emission and appended
     to the decision log in one batch after the replay. Resume writes no
     snapshot, so snapshot <= decisions <= WAL still holds if it dies
     before that append. *)
  let durable = Array.of_list rz.decisions in
  let reemitted = ref [] in
  List.iter
    (fun (idx, r) ->
      if idx >= start then begin
        if idx <> count t then
          fail "Session.resume: WAL replay out of order (at %d, expected %d)"
            idx (count t);
        Metrics.incr replayed_c;
        let d = step_only t r in
        if d.Wire.index < rz.n_decisions then begin
          let recomputed = Wire.decision_to_json d in
          if recomputed <> durable.(d.Wire.index) then
            fail
              "Session.resume: replay diverges from the durable decision \
               log at index %d (recomputed %s, durable %s) — the snapshot \
               does not reproduce the state that emitted the log"
              d.Wire.index recomputed
              durable.(d.Wire.index)
        end
        else begin
          log_decision t d;
          reemitted := d :: !reemitted
        end
      end)
    rz.wal;
  flush_decisions t;
  Trace_sink.emit_current ~kind:"serve.resume"
    [
      ("start", Trace_sink.Int start);
      ("replayed", Trace_sink.Int (count t - start));
      ("reemitted", Trace_sink.Int (List.length !reemitted));
    ];
  (t, List.rev !reemitted)

(* How a session opens — fresh, checkpointed, or resumed — decided in one
   place for stdin and socket sessions alike. *)
let start ~algo ~seed ~instance_md5 ~checkpoint ~resume:resuming env =
  match (checkpoint, resuming) with
  | None, true -> fail "resume requires checkpointing"
  | None, false -> (create ~algo ~seed env, [])
  | Some (dir, _), true ->
      resume ~algo
        (Checkpoint.open_resume ~dir
           ~n_sites:(Omflp_metric.Finite_metric.size (Problem_env.metric env))
           ~n_commodities:(Cost_function.n_commodities (Problem_env.cost env))
           ~instance_md5)
        env
  | Some (dir, snapshot_every), false ->
      let (module A : Algo_intf.ALGO) = algo in
      let checkpoint =
        Checkpoint.create ~dir ~algo:A.name ~seed:(Some seed) ~instance_md5
          ~snapshot_every
      in
      (create ~algo ~seed ~checkpoint env, [])

let close t =
  match t.checkpoint with
  | None -> ()
  | Some cp ->
      (* The cadence may already have written this count's snapshot. The
         logs close even when that write fails, so a long-running server
         does not leak their descriptors. *)
      Fun.protect
        ~finally:(fun () -> Checkpoint.close cp)
        (fun () ->
          if t.snapshot_count <> count t then
            write_snapshot t cp (encode_snapshot t))
