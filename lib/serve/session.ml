open Omflp_commodity
open Omflp_instance
open Omflp_core
open Omflp_obs

type state = State : (module Algo_intf.ALGO with type t = 'a) * 'a -> state

type t = {
  env : Problem_env.t;
  state : state;
  checkpoint : Checkpoint.t option;
  mutable count : int;
  mutable n_facilities_seen : int;
  (* Reused per-session scratch for batched WAL/decision appends; a
     session is drained by one worker at a time, so no lock. *)
  wal_buf : Buffer.t;
  dec_buf : Buffer.t;
}

let requests_c = Metrics.counter "serve.requests"
let resume_c = Metrics.counter "serve.resume"
let replayed_c = Metrics.counter "serve.replayed"
let snapshots_c = Metrics.counter "serve.snapshots"
let step_t = Metrics.timer "serve.step"

let fail fmt = Printf.ksprintf failwith fmt

let count t = t.count

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
  let st = A.create ?seed env in
  {
    env;
    state = State ((module A), st);
    checkpoint;
    count = 0;
    n_facilities_seen = 0;
    wal_buf = Buffer.create 256;
    dec_buf = Buffer.create 1024;
  }

(* One algorithm step plus decision-record assembly; WAL and decision-log
   appends are the caller's business (live vs replay differ there). *)
let step_only t (r : Request.t) =
  match t.state with
  | State ((module A), st) ->
      let t0 = Metrics.now () in
      let service = A.step st r in
      Metrics.record_span step_t (Metrics.now () -. t0);
      let store = A.store st in
      let n_fac = Facility_store.n_facilities store in
      let opened =
        List.init (n_fac - t.n_facilities_seen) (fun i ->
            Facility_store.facility store (t.n_facilities_seen + i))
      in
      let d =
        {
          Wire.index = t.count;
          site = r.site;
          demand = Cset.elements r.demand;
          service;
          opened;
          construction = Facility_store.construction_cost store;
          assignment = Facility_store.assignment_cost store;
          total = Facility_store.total_cost store;
        }
      in
      t.n_facilities_seen <- n_fac;
      t.count <- t.count + 1;
      d

let take_snapshot t =
  match (t.checkpoint, t.state) with
  | None, _ -> ()
  | Some cp, State ((module A), st) ->
      Checkpoint.write_snapshot cp ~count:t.count (A.snapshot st);
      Metrics.incr snapshots_c

let maybe_snapshot t =
  match t.checkpoint with
  | Some cp when t.count mod Checkpoint.snapshot_every cp = 0 ->
      take_snapshot t
  | _ -> ()

let handle t (r : Request.t) =
  Metrics.incr requests_c;
  (match t.checkpoint with
  | Some cp -> Checkpoint.append_wal cp (Wire.request_to_json ~index:t.count r)
  | None -> ());
  let d = step_only t r in
  (match t.checkpoint with
  | Some cp -> Checkpoint.append_decision cp (Wire.decision_to_json d)
  | None -> ());
  maybe_snapshot t;
  Trace_sink.emit_current ~kind:"serve.step"
    [
      ("index", Trace_sink.Int d.Wire.index);
      ("site", Trace_sink.Int d.Wire.site);
      ("total", Trace_sink.Float d.Wire.total);
    ];
  d

(* Batch entry point: the WAL lines of the whole batch are made durable
   in one flush before any step runs, every request is then stepped in
   arrival order, and the decision lines land in one flush at the end —
   identical bytes to per-request [handle], grouped. A crash or a
   failing step mid-batch leaves the standard crash-window shape (WAL
   ahead of decisions); the decisions of the stepped prefix are flushed
   before the error propagates, so the durable log never falls behind a
   snapshot written at [close]. Decision records observe the per-request
   cost evolution, so only the IO is batched: each request is its own
   [step]. *)
let handle_batch t (reqs : Request.t array) =
  let n = Array.length reqs in
  if n = 0 then [||]
  else begin
    Metrics.add requests_c n;
    (match t.checkpoint with
    | Some cp ->
        Buffer.clear t.wal_buf;
        Array.iteri
          (fun i r ->
            Buffer.add_string t.wal_buf
              (Wire.request_to_json ~index:(t.count + i) r);
            Buffer.add_char t.wal_buf '\n')
          reqs;
        Checkpoint.append_wal_batch cp t.wal_buf
    | None -> ());
    Buffer.clear t.dec_buf;
    let flush_decisions () =
      match t.checkpoint with
      | Some cp when Buffer.length t.dec_buf > 0 ->
          Checkpoint.append_decision_batch cp t.dec_buf;
          Buffer.clear t.dec_buf
      | _ -> ()
    in
    let ds_rev = ref [] in
    (try
       Array.iter
         (fun r ->
           let d = step_only t r in
           (match t.checkpoint with
           | Some _ ->
               Wire.decision_to_buffer t.dec_buf d;
               Buffer.add_char t.dec_buf '\n'
           | None -> ());
           Trace_sink.emit_current ~kind:"serve.step"
             [
               ("index", Trace_sink.Int d.Wire.index);
               ("site", Trace_sink.Int d.Wire.site);
               ("total", Trace_sink.Float d.Wire.total);
             ];
           ds_rev := d :: !ds_rev)
         reqs
     with e ->
       flush_decisions ();
       raise e);
    flush_decisions ();
    (match t.checkpoint with
    | Some cp
      when t.count / Checkpoint.snapshot_every cp
           > (t.count - n) / Checkpoint.snapshot_every cp ->
        take_snapshot t
    | _ -> ());
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
  let start, st =
    match rz.snapshot with
    | Some (c, blob) -> (c, A.restore env blob)
    | None -> (0, A.create ?seed:(Checkpoint.seed rz.cp) env)
  in
  let t =
    {
      env;
      state = State ((module A), st);
      checkpoint = Some rz.cp;
      count = start;
      n_facilities_seen = Facility_store.n_facilities (A.store st);
      wal_buf = Buffer.create 256;
      dec_buf = Buffer.create 1024;
    }
  in
  (* Replay the WAL suffix the snapshot does not cover. Decisions already
     durable (index < n_decisions) are recomputed and cross-checked byte
     for byte against the durable log — a snapshot that restores into a
     different state (corruption, a planted blob, a nondeterministic
     environment) would otherwise silently continue a decision stream
     that contradicts what the client already saw. The rest were lost in
     the crash window and are appended and handed back for
     re-emission. *)
  let durable = Array.of_list rz.decisions in
  let reemitted = ref [] in
  List.iter
    (fun (idx, r) ->
      if idx >= start then begin
        if idx <> t.count then
          fail "Session.resume: WAL replay out of order (at %d, expected %d)"
            idx t.count;
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
          (match t.checkpoint with
          | Some cp -> Checkpoint.append_decision cp (Wire.decision_to_json d)
          | None -> ());
          reemitted := d :: !reemitted
        end
      end)
    rz.wal;
  Trace_sink.emit_current ~kind:"serve.resume"
    [
      ("start", Trace_sink.Int start);
      ("replayed", Trace_sink.Int (t.count - start));
      ("reemitted", Trace_sink.Int (List.length !reemitted));
    ];
  (t, List.rev !reemitted)

let close t =
  match t.checkpoint with
  | None -> ()
  | Some cp ->
      take_snapshot t;
      Checkpoint.close cp
