(** Long-lived serving sessions: requests in, decision records out, with
    optional crash-robust checkpointing.

    A session wraps any registered {!Omflp_core.Algo_intf.ALGO}. Stdin
    and socket sessions open through {!start} and step through
    {!handle_batch}, so both write the same logs for the same stream.
    With a {!Checkpoint.t} attached, every batch is write-ahead logged
    before the algorithm steps and its decisions are appended after; the
    algorithm's next snapshot segment (a delta since the previous one,
    or a base) is encoded at every [snapshot_every]-th request and
    written after the batch's decisions, and one more at {!close}.
    {!resume} restores the snapshot chain, replays the WAL suffix, and —
    by the byte-identical continuation contract of
    {!Omflp_core.Algo_intf.ALGO.snapshot} — continues exactly the
    decision stream of the uninterrupted run.

    Observability: counters [serve.requests], [serve.resume],
    [serve.replayed], [serve.snapshots]; timer [serve.step]; trace events
    [serve.step] and [serve.resume] through the current sink. *)

type t

(** [create ~algo ?seed ?checkpoint env] starts a fresh session. Raises
    [Failure] when [checkpoint] was created for another algorithm, or
    when the algorithm's declared family doesn't match [env]'s (see
    {!Omflp_instance.Problem_env.mismatch_message}) — sessions refuse at
    open, never crash mid-run. *)
val create :
  algo:Omflp_core.Algo_intf.packed ->
  ?seed:int ->
  ?checkpoint:Checkpoint.t ->
  Omflp_instance.Problem_env.t ->
  t

(** [handle_batch t reqs] is the only way a request is stepped and
    logged. It appends the batch's WAL lines with one flush before the
    first step, steps each request in order — encoding the algorithm's
    next snapshot segment whenever the count reaches a multiple of
    [snapshot_every] — appends the decisions with one flush after the
    last, and then writes those segments in order. How a stream is cut
    into batches never changes a logged byte, snapshot file included: a
    one-request batch (stdin mode) logs what any grouping does. A
    failing step writes the decisions of the stepped prefix and the
    segments encoded before it before the exception propagates,
    preserving the crash-window shape (snapshot <= decisions <= WAL). *)
val handle_batch :
  t -> Omflp_instance.Request.t array -> Wire.decision array

(** [resume ~algo rz env] revives a session from what
    {!Checkpoint.open_resume} found and replays the uncovered WAL
    suffix. A snapshot whose header covers a different number of
    requests than the state it restores has served is refused with a
    named [Failure]. Every recomputed decision that is already durable is
    cross-checked byte for byte against the durable log; a mismatch —
    a snapshot that does not reproduce the state that emitted the log —
    raises [Failure] instead of silently contradicting what the client
    already saw. Returns the session positioned after the last WAL entry
    plus the decisions that were {e not} yet durable (crash window) —
    the caller should re-emit exactly those. They are appended to the
    decision log in one batch after the replay; resume writes no
    snapshot. *)
val resume :
  algo:Omflp_core.Algo_intf.packed ->
  Checkpoint.resume ->
  Omflp_instance.Problem_env.t ->
  (t * Wire.decision list)

(** [start ~algo ~seed ~instance_md5 ~checkpoint ~resume env] opens a
    session the way both serve modes do, and returns it with the
    decisions to re-emit:
    - [checkpoint = None]: a fresh {!create} (nothing to re-emit);
    - [checkpoint = Some (dir, snapshot_every)]: {!Checkpoint.create} on
      [dir], then {!create};
    - [resume = true]: {!Checkpoint.open_resume} on [dir] (sizes taken
      from [env]; the manifest's cadence wins over [snapshot_every]),
      then {!resume}.

    [Session.count] of the result is the number of requests the stream
    already served. Raises [Failure "resume requires checkpointing"]
    when [resume] is set without a checkpoint, and every [Failure] of
    the calls above. *)
val start :
  algo:Omflp_core.Algo_intf.packed ->
  seed:int ->
  instance_md5:string ->
  checkpoint:(string * int) option ->
  resume:bool ->
  Omflp_instance.Problem_env.t ->
  t * Wire.decision list

(** [count t] is the number of requests served, replayed ones included:
    the request count of the algorithm's store
    ({!Omflp_core.Facility_store.n_requests}). *)
val count : t -> int

(** [running_costs t] is (construction, assignment, total) so far. *)
val running_costs : t -> float * float * float

(** [close t] writes a final snapshot segment, unless this session's
    cadence already wrote one at the current count, and closes the
    checkpoint (no-op without one). The checkpoint's logs are closed
    even when the snapshot write raises. *)
val close : t -> unit
