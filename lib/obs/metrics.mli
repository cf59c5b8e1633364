(** Process-wide metrics registry: monotonic counters, elapsed-time timers,
    and log-scale histograms.

    Designed to stay enabled in hot paths: instruments are registered once
    (at module initialization) and resolve to indices into flat arrays, so
    an increment is one branch on the global enable flag plus one array
    write — no allocation, no hashing. All instruments are process-global;
    callers that need per-run numbers snapshot before and after, or
    {!reset} between runs.

    Recording is {e domain-safe}: instrument state is sharded per domain
    (each domain writes only its own flat arrays, reached through
    [Domain.DLS], so pool workers never contend or race), and readers
    ({!value}, {!snapshot}, {!reset}) merge every shard in domain-id
    order. Integer counters therefore merge exactly — the same workload
    yields the same counts whether it ran on 1 domain or N — while float
    accumulators (timer totals, histogram sums) merge in a deterministic
    order. Merging is intended for join points: call {!snapshot} or
    {!value} only while no task is concurrently {e recording}.
    Concurrent {e registration} is safe, though: {!snapshot} captures the
    instrument name tables under the registration mutex, so a server
    registering per-session instruments on one domain never tears a
    snapshot taken on another.

    Recording is gated by {!set_enabled} and starts disabled, so
    unobserved runs pay only the flag check. *)

(** {1 Enablement} *)

val set_enabled : bool -> unit

val enabled : unit -> bool

(** {1 Counters} *)

type counter

(** [counter name] registers (or looks up — registration is idempotent,
    the same name always yields the same instrument) a monotonic counter. *)
val counter : string -> counter

(** [incr c] adds 1 when metrics are enabled; no-op otherwise. *)
val incr : counter -> unit

(** [add c n] adds [n] when metrics are enabled. *)
val add : counter -> int -> unit

val value : counter -> int

(** {1 Timers}

    A timer accumulates elapsed-time spans (seconds) and the number of
    recorded spans. *)

type timer

val timer : string -> timer

(** [now ()] is [CLOCK_MONOTONIC] in seconds (bechamel's
    [Monotonic_clock]): it never goes back, also when the wall clock is
    stepped, and only differences between two readings mean anything.
    Always live, so callers can bracket a span and decide later whether
    to record it. *)
val now : unit -> float

(** [record_span t seconds] adds one span when metrics are enabled. *)
val record_span : timer -> float -> unit

(** [time t f] runs [f ()], recording its duration when enabled. *)
val time : timer -> (unit -> 'a) -> 'a

(** {1 Histograms}

    Fixed log-scale (base-2) buckets: bucket [i] covers
    [[2^(i-34), 2^(i-33))] with the extremes clamped, so the usable range
    spans ~5.8e-11 to ~5.4e8 — nanoseconds to years when observing
    seconds, single units to hundreds of millions when observing sizes.
    Observation is two array writes; quantiles from the snapshot are
    approximate (bucket geometric midpoint). *)

type histogram

val histogram : string -> histogram

(** [observe h v] records [v] (clamped to the bucket range) when
    enabled. *)
val observe : histogram -> float -> unit

(** {1 Snapshots} *)

type counter_view = { c_name : string; c_value : int }

type timer_view = {
  t_name : string;
  t_events : int;
  t_total_s : float;  (** summed span length, seconds *)
}

type bucket = { b_lo : float; b_hi : float; b_count : int }

type histogram_view = {
  h_name : string;
  h_events : int;
  h_sum : float;
  h_buckets : bucket list;  (** non-empty buckets, ascending *)
}

type snapshot = {
  counters : counter_view list;
  timers : timer_view list;
  histograms : histogram_view list;
}

(** [snapshot ()] captures every registered instrument, each section
    sorted by name (deterministic output). Zero-valued counters are
    included — a wired-but-never-hit code path is itself a signal. *)
val snapshot : unit -> snapshot

(** [approx_quantile view q] estimates the [q]-quantile ([0 <= q <= 1])
    of a histogram from its buckets; [nan] when empty. *)
val approx_quantile : histogram_view -> float -> float

(** [reset ()] zeroes every instrument, keeping registrations. *)
val reset : unit -> unit
