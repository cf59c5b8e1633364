(** The benchmark harness behind [bench/main.exe] and [omflp bench]:
    experiment tables, Bechamel E7 microbenchmarks, lib/obs work
    counters, BENCH.json emission, and the regression gate against a
    committed baseline. *)

type config = {
  quick : bool;  (** smaller sizes, shorter bechamel quotas *)
  tables_only : bool;
  bench_only : bool;
  jobs : int;  (** pool size for the experiment tables *)
  json_path : string option;  (** write [omflp.bench.v1] here *)
  baseline_path : string option;
      (** gate ns/run rows against this [omflp.bench.v1] file *)
  max_regression : float;
      (** allowed slowdown per row as a fraction (0.25 = +25%) *)
  family : Omflp_instance.Problem_env.Family.t option;
      (** restrict the bechamel rows to one problem family: [omflp] runs
          the classic suite, another family runs only its E12 rows;
          [None] runs everything *)
}

val default_max_regression : float

(** Full-size run, no JSON, no gate. *)
val default_config : config

(** [run config] executes the configured parts and returns the process
    exit code: 0 on success, 1 when the gate found a regression, 2 when
    the baseline file is unreadable. *)
val run : config -> int

(** {2 Pieces, exposed for tests and custom drivers} *)

val run_tables : quick:bool -> unit -> unit

(** [(name, ns_per_run)] rows sorted by name; [None] when Bechamel
    produced no estimate. [family] restricts the test list as in
    {!config}. *)
val run_benchmarks :
  ?family:Omflp_instance.Problem_env.Family.t ->
  quick:bool ->
  unit ->
  (string * float option) list

val run_work_counters : quick:bool -> unit -> (string * string * int) list

(** [(workload, minor words per request)] rows: [Gc.minor_words] deltas
    over {!alloc_reps} seeded full runs after one warm-up run, divided by
    [reps * n_requests]. Deterministic for a fixed workload. *)
val run_allocations : unit -> (string * float) list

(** Measured runs per allocation row (after the warm-up run). *)
val alloc_reps : int

val write_json :
  quick:bool ->
  jobs:int ->
  string ->
  bench_rows:(string * float option) list ->
  counter_rows:(string * string * int) list ->
  alloc_rows:(string * float) list ->
  unit

type regression = {
  reg_name : string;
  baseline_ns : float;
  current_ns : float;
  ratio : float;
}

type gate_report = {
  compared : int;
  skipped : string list;  (** current rows with no (numeric) baseline row *)
  unmatched : string list;
      (** baseline rows no current row was compared to, in baseline order *)
  regressions : regression list;
}

(** [read_baseline path] loads the [benchmarks] rows of an
    [omflp.bench.v1] file, dropping [null] estimates. *)
val read_baseline : string -> ((string * float) list, string) result

(** [vacuous_error ~baseline_path ~n_rows ~skipped] is the pinned message
    {!compare_baseline} returns when the intersection is empty. *)
val vacuous_error : baseline_path:string -> n_rows:int -> skipped:int -> string

(** [compare_baseline ~baseline_path ~max_regression rows] diffs the
    current rows against the baseline by benchmark name (intersection
    only: rows missing on either side are listed by name in [skipped] /
    [unmatched], never failed; the gate prints every one). A row
    regresses when [current > baseline * (1 + max_regression)].
    An empty intersection ([compared = 0]) is a hard [Error]
    ({!vacuous_error}) — a gate that compared nothing must not pass. *)
val compare_baseline :
  baseline_path:string ->
  max_regression:float ->
  (string * float option) list ->
  (gate_report, string) result

(** {2 Allocation gate} *)

(** Fixed growth threshold for minor words per request (0.10 = +10%).
    Tighter than the ns gate because the measurement is deterministic. *)
val alloc_max_growth : float

(** [missing_alloc_error ~baseline_path] is the pinned message for a
    baseline file predating the [allocations] section. *)
val missing_alloc_error : baseline_path:string -> string

(** [read_alloc_baseline path] loads the [allocations] rows of an
    [omflp.bench.v1] file. A baseline {e without} the section is a hard
    [Error] ({!missing_alloc_error}), not an empty list — the gate must
    not silently pass against a stale baseline. *)
val read_alloc_baseline : string -> ((string * float) list, string) result

(** [compare_allocations ~baseline_path rows] diffs current
    minor-words-per-request rows against the baseline by workload name,
    flagging growth beyond {!alloc_max_growth}. Reuses {!gate_report};
    in its rows the [baseline_ns]/[current_ns] fields hold minor words
    per request. Empty intersection is a hard [Error]. *)
val compare_allocations :
  baseline_path:string ->
  (string * float) list ->
  (gate_report, string) result
