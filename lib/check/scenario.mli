(** Seeded random scenario generation for the conformance oracle.

    A scenario is a complete OMFLP instance drawn from the cross product
    of metric generators ({!Omflp_metric.Metric_gen}), workload families
    ({!Omflp_instance.Generators}), construction-cost families
    ({!Omflp_commodity.Cost_function}), and an arrival model
    ({!Omflp_instance.Arrival}: adversarial in-order / reversed, seeded
    random-order permutation, seeded i.i.d. redraw) — online algorithms
    fail on adversarial {e orderings} as much as on adversarial point
    sets, so the arrival model is part of the sampled space, and every
    instance carries it so corpus replays reproduce the exact order.

    Generation is index-derived: scenario [i] of master seed [s] depends
    on [(s, i)] alone, never on any other scenario, so scenarios can be
    produced on any domain in any order ({!Omflp_prelude.Pool.map}) and
    reproduced one by one from a report. *)

type t = {
  index : int;  (** position in the budgeted sweep *)
  label : string;  (** human-readable description (also the instance name) *)
  instance : Omflp_instance.Instance.t;
  algo_seed : int;  (** seed handed to every algorithm run on this instance *)
}

(** Restriction of the arrival axis for targeted fuzzing ([check
    --arrival ...]): [`Adversarial] keeps the in-order/reversed split,
    the others force that model. *)
type forced = [ `Adversarial | `Random_order | `Iid ]

(** [forced_of_string s] parses ["adversarial"]/["adv"],
    ["random-order"]/["ro"], ["iid"]. *)
val forced_of_string : string -> forced option

(** [generate ?arrival ~master_seed ~index ()] draws scenario [index] of
    the stream identified by [master_seed]. Instances are deliberately
    small (≤ 8 sites, ≤ 12 requests, ≤ 16 commodities) so that the
    oracle's exact offline brackets and subset enumerations stay
    affordable. Forcing [?arrival] changes only the order treatment: the
    underlying instance family, sizes, and [algo_seed] of a given
    [(master_seed, index)] are identical across forcings because every
    RNG draw is consumed unconditionally. *)
val generate :
  ?arrival:forced ->
  ?family:Omflp_instance.Problem_env.Family.t ->
  master_seed:int ->
  index:int ->
  unit ->
  t

(** [generate ?family ...] additionally forces a problem family: the
    same underlying instance as the unforced draw of [(master_seed,
    index)] with family data (non-metric connection matrix or lease
    menu) bolted on — all family draws are consumed after every
    plain-OMFLP draw, so unforced scenarios are unchanged. *)

(** [golden ~master_seed ~index] draws with the golden-pin family
    convention applied: indices 0–29 unforced (plain OMFLP), 30–32
    forced to non-metric, 33–35 to leasing, beyond unforced. *)
val golden : master_seed:int -> index:int -> t
