(** Durable session state: write-ahead request log, decision log, and
    versioned state snapshots in one directory.

    Layout (all inside the checkpoint directory):
    - [MANIFEST.json] — format id, algorithm, seed, instance md5,
      snapshot cadence; written atomically once at session creation;
    - [wal.jsonl] — one canonical request line per accepted request,
      appended and flushed {e before} the first step of its batch;
    - [decisions.jsonl] — one canonical decision line per served request,
      appended and flushed {e after} the last step of its batch (so the
      decision log never runs ahead of the WAL);
    - [snapshot.bin] — the latest algorithm+store snapshot, replaced
      atomically (temp + rename) every [snapshot_every] requests, with an
      MD5 of the blob in the header checked {e before} any decoding.

    Durability contract: every write is flushed per batch — the WAL
    before the batch's first step, the decisions after its last — so a
    crash, including SIGKILL, loses at most the decisions of the batch
    being served, never a WAL line of a request that was stepped; resume
    truncates a torn trailing line, replays the WAL suffix not covered
    by the snapshot, and re-emits the decisions the crash lost. Flushed
    is not fsynced: the logs survive SIGKILL, not power loss. *)

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

(** [write_snapshot t ~count blob] atomically replaces the snapshot with
    [blob], recording that it covers the first [count] requests. *)
val write_snapshot : t -> count:int -> string -> unit

(** [load_snapshot ~dir] reads the snapshot back, checking its MD5
    against the header before returning the blob. [None] when no snapshot
    was written yet; raises [Failure] on a corrupt or truncated file. *)
val load_snapshot : dir:string -> (int * string) option

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
}

(** [open_resume ~dir ~n_sites ~n_commodities ~instance_md5] validates the
    manifest (format id, instance md5, integral/positive
    [snapshot_every], integral-or-null [seed]), truncates torn tails of
    both logs, parses the WAL, and integrity-checks the snapshot. All
    failures are [Failure] with a named [Checkpoint.resume: ...]
    message. *)
val open_resume :
  dir:string ->
  n_sites:int ->
  n_commodities:int ->
  instance_md5:string ->
  resume
