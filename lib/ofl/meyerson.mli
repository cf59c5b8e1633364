(** Meyerson's randomized Online Facility Location algorithm (FOCS 2001),
    non-uniform opening costs handled via power-of-two cost classes: the
    ones RAND-OMFLP uses, built and searched through
    {!Omflp_commodity.Cost_classes}. Its open facilities, distance table
    and costs are an {!Ofl_types.served} set.

    On each request the expected amount spent on openings equals the
    request's connection estimate, split across classes proportionally to
    the distance improvement the class would bring. RAND-OMFLP
    ({!Omflp_core.Rand_omflp}) lifts this scheme to commodities. *)

include Ofl_types.ALGORITHM

(** [create_seeded metric ~opening_costs ~rng] fixes the randomness
    source; {!create} seeds from a default constant. *)
val create_seeded :
  Omflp_metric.Finite_metric.t ->
  opening_costs:float array ->
  rng:Omflp_prelude.Splitmix.t ->
  t
