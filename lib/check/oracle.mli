(** Differential oracle: cross-cutting invariants every registered online
    algorithm must satisfy on every instance.

    The paper's guarantees are inequalities relating an online run to the
    offline optimum; this module makes them executable per instance:

    - {b feasible}: {!Omflp_core.Simulator.validate} — every request
      served, configurations consistent, reported costs match a
      recomputation from first principles;
    - {b deterministic}: two runs with the same seed are byte-identical;
    - {b opt-lower}: online cost ≥ the certified offline lower bound
      ({!Omflp_offline.Opt_estimate.bracket} — exact/ILP/LP on small
      instances) — no online algorithm may beat OPT;
    - {b bracket-order}: the offline bracket itself satisfies
      [lower ≤ upper] — a differential check of the offline solvers;
    - {b corollary8} / {b corollary17} / {b theorem4}: PD-OMFLP's cost is
      within the proven factor of its dual objective and the scaled duals
      are dual-feasible ({!Omflp_core.Dual_checker});
    - {b weak-duality}: [γ · Σ a_re] never exceeds the cost of a concrete
      feasible offline solution;
    - {b bid-cache}: PD-OMFLP's maintained constraint-(3)/(4) bid sums
      agree with a from-scratch summation
      ({!Omflp_core.Pd_omflp.cache_drift}) up to float noise relative to
      its dual objective;
    - {b resume}: snapshotting at the midpoint and restoring from the
      blob ({!Omflp_core.Algo_intf.ALGO.snapshot}) reproduces the
      uninterrupted run byte-identically — the serving layer's
      crash/resume path in miniature.

    Violations are reported, never raised — an algorithm exception
    becomes a ["run"] violation, and an explicitly-passed algorithm whose
    declared {!Omflp_core.Algo_intf.ALGO.family} differs from the
    instance's environment becomes a ["family-mismatch"] violation and is
    skipped (defaulted algorithm lists are already family-filtered via
    {!Omflp_core.Registry.of_family}) — so the checker composes with
    shrinking and budgeted fan-out. Findings are counted through [Omflp_obs]
    ([check.instances], [check.checks], [check.violations]). *)

type violation = {
  check : string;  (** invariant identifier, e.g. ["opt-lower"] *)
  algo : string;  (** offending algorithm, or ["(offline)"] *)
  detail : string;  (** human-readable explanation *)
}

(** [default_algos ()] is {!Omflp_core.Registry.extended}. *)
val default_algos : unit -> (string * Omflp_core.Algo_intf.packed) list

(** [run_digest run] is a canonical string of a completed run — algorithm
    name, exact costs ([%.17g]), facilities (site, configuration, opening
    request), and per-request service decisions. Two digests are equal
    iff the runs are observationally identical; used for the determinism
    checks (same seed twice, pool jobs 1 vs N). *)
val run_digest : Omflp_core.Run.t -> string

(** [check_instance ?algos ?seed inst] runs every check against every
    algorithm of [algos] (default {!default_algos}) and returns all
    violations found, in check order. [seed] (default 0) seeds every
    algorithm run. *)
val check_instance :
  ?algos:(string * Omflp_core.Algo_intf.packed) list ->
  ?seed:int ->
  Omflp_instance.Instance.t ->
  violation list
