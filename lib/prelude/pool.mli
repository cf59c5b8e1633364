(** Fixed-size domain pool for embarrassingly parallel fan-out.

    A pool owns [jobs - 1] worker domains (spawned once at {!create},
    reused for every subsequent {!map}) plus the calling domain, which
    participates in draining the work queue — so a pool with [jobs = 4]
    executes tasks on exactly four domains. With [jobs = 1] no domain is
    ever spawned and {!map} degenerates to [Array.map].

    The intended discipline is the one the experiment harness enforces:
    tasks are pure functions of their input (every repetition derives its
    own RNG from a seed), so [map pool f arr] returns exactly what
    [Array.map f arr] returns, element for element, regardless of [jobs]
    — this is the byte-identical determinism contract tested in
    [test/test_pool.ml] and [test/test_experiments.ml]. Tasks must not
    print, install trace sinks, or mutate shared state other than through
    the domain-safe [Omflp_obs.Metrics] shards. *)

type t

(** [create ~jobs] spawns [jobs - 1] worker domains. Raises
    [Invalid_argument] when [jobs < 1]. *)
val create : jobs:int -> t

(** [jobs t] is the parallelism the pool was created with. *)
val jobs : t -> int

(** [map t f arr] applies [f] to every element of [arr], in parallel on
    the pool's domains, and returns the results in input order.

    Exceptions raised by [f] are caught per task; once every task has
    settled, the exception of the lowest-index failing element is
    re-raised (with its backtrace) in the calling domain — deterministic
    even when several tasks fail.

    Runs inline (plain [Array.map], no queueing) when [jobs t = 1], when
    [arr] has at most one element, or when called from inside a pool task
    — nested [map]s are safe but sequential. *)
val map : t -> ('a -> 'b) -> 'a array -> 'b array

(** [shutdown t] drains outstanding work and joins the worker domains.
    Idempotent; {!map} on a shut-down pool raises [Invalid_argument]. *)
val shutdown : t -> unit

(** {1 The process-default pool}

    CLI entry points configure parallelism once ([--jobs N] /
    [OMFLP_JOBS]); library code that wants the ambient pool calls
    {!default}. The default starts at [jobs = 1], i.e. fully serial. *)

(** [set_default_jobs n] shuts down the current default pool (if any) and
    makes the next {!default} create one with [n] domains. Raises
    [Invalid_argument] when [n < 1]. *)
val set_default_jobs : int -> unit

val default_jobs : unit -> int

(** [default ()] is the lazily-created process-default pool. *)
val default : unit -> t
