(** Durable session state: write-ahead request log, decision log, and
    versioned state snapshots in one directory.

    Layout (all inside the checkpoint directory):
    - [MANIFEST.json] — format id ([omflp.serve.v2]), algorithm, seed,
      instance md5, snapshot cadence; written atomically once at session
      creation;
    - [wal.jsonl] — one canonical request line per accepted request,
      appended and flushed {e before} the first step of its batch;
    - [decisions.jsonl] — one canonical decision line per served request,
      appended and flushed {e after} the last step of its batch (so the
      decision log never runs ahead of the WAL);
    - [snapshot.bin] — a segment chain of the algorithm's state (see
      {!Omflp_prelude.Snapshot_codec}): a base segment, then delta
      segments appended behind it, each carrying the request count it
      covers and its own MD5. A cadence point (every [snapshot_every]
      requests) appends the algorithm's next segment, or replaces the
      whole file atomically (temp + rename) when that segment is a base.

    Compaction: the algorithm's stream writes a fresh base once the
    deltas since the last one have outgrown it, so the file stays within
    about twice the state's size, resume reads O(state) bytes, and the
    snapshot bytes written per request do not grow with the session.

    Durability contract: every write is flushed per batch — the WAL
    before the batch's first step, the decisions after its last, then
    the batch's snapshot segment — so a crash, including SIGKILL, loses
    at most the decisions of the batch being served, never a WAL line of
    a request that was stepped. Resume truncates a torn trailing line of
    either log and a torn trailing snapshot segment (a crash between a
    delta's append and its flush), restores the intact chain, replays
    the WAL suffix it does not cover, and re-emits the decisions the
    crash lost. Flushed is not fsynced: the files survive SIGKILL, not
    power loss. *)

type t

val dir : t -> string
val algo : t -> string
val seed : t -> int option
val snapshot_every : t -> int

(** [create ~dir ~algo ~seed ~instance_md5 ~snapshot_every] starts a fresh
    session, creating [dir] when missing. Raises [Failure] if [dir]
    already holds a session manifest. *)
val create :
  dir:string ->
  algo:string ->
  seed:int option ->
  instance_md5:string ->
  snapshot_every:int ->
  t

(** [append_wal_batch t buf] durably appends a batch of whole
    newline-terminated request lines in one write + flush. The batch
    must still be made durable before the first step it covers. *)
val append_wal_batch : t -> Buffer.t -> unit

(** [append_decision_batch t buf] durably appends a batch of whole
    newline-terminated decision lines in one write + flush. *)
val append_decision_batch : t -> Buffer.t -> unit

(** [write_snapshot t ~count seg] stores the next segment of the
    algorithm's snapshot stream, which must cover the first [count]
    requests: a base segment atomically replaces the file, a delta is
    appended (and flushed) through a channel opened for that append.
    Raises [Invalid_argument] when [seg] is not one segment covering
    [count], and [Failure] when a delta does not start where the file's
    chain ends (a previous snapshot write failed), so a broken write
    never breaks the chain on disk. *)
val write_snapshot : t -> count:int -> string -> unit

val close : t -> unit

(** What {!open_resume} found: the reopened checkpoint, the full WAL in
    index order, the durable decision lines (verbatim, so a replay can be
    cross-checked against them), and the latest snapshot. Invariants
    checked: sequential WAL indexes,
    [snapshot count <= n_decisions <= |wal|] (the per-batch write order
    is WAL flush, then decision flush, then snapshot — a genuine crash
    cannot violate this chain, only external corruption can). *)
type resume = {
  cp : t;
  wal : (int * Omflp_instance.Request.t) list;
  decisions : string list;  (** durable decision lines, in index order *)
  n_decisions : int;  (** [List.length decisions] *)
  snapshot : (int * string) option;
      (** the request count the chain covers, and the chain *)
}

(** [open_resume ~dir ~n_sites ~n_commodities ~instance_md5] validates the
    manifest (format id, instance md5, integral/positive
    [snapshot_every], integral-or-null [seed]), truncates torn tails of
    both logs and of the snapshot chain, parses the WAL, and checks
    every snapshot segment's header, MD5 and place in the chain. A
    damaged or truncated base and a damaged segment anywhere are
    refused. All failures are [Failure] with a named
    [Checkpoint.resume: ...] message. *)
val open_resume :
  dir:string ->
  n_sites:int ->
  n_commodities:int ->
  instance_md5:string ->
  resume
