(** Fotakis' deterministic primal–dual Online Facility Location algorithm
    (J. Discrete Algorithms 2007), O(log n)-competitive.

    Each arriving request raises a dual value until either it can connect
    to an existing facility at that price, or the accumulated bids of all
    requests pay for a new facility at some site. PD-OMFLP
    ({!Omflp_core.Pd_omflp}) generalizes exactly this mechanism to
    commodities; this module is both the per-commodity baseline and the
    sanity reference for the generalization. Its open facilities,
    distance table and costs are an {!Ofl_types.served} set. *)

include Ofl_types.ALGORITHM

(** [duals t] lists the frozen dual value of every request so far, in
    arrival order. *)
val duals : t -> float list

(** A served request's frozen dual, at its site. *)
type past = { site : int; dual : float }

(** [event metric ~bids ~opening ~dist_to_served past r] is the one
    Fotakis step, which FOTAKIS-OFL, INDEP, ALL-LARGE and HEAVY-AWARE's
    heavy commodities all take: it serves a request at site [r] against
    the history [past] (newest first). [bids] is
    scratch of length [size metric], [opening.(m)] the cost of opening
    at [m] and [dist_to_served s] the distance from [s] to the nearest
    open facility ([infinity] when none); each past request bids its
    dual capped by its own [dist_to_served]. It returns the site to
    open — the one whose facility the rising dual pays first, the
    lowest on ties, when that comes strictly before connecting — and
    the request's record, which the caller prepends to [past]. *)
val event :
  Omflp_metric.Finite_metric.t ->
  bids:float array ->
  opening:float array ->
  dist_to_served:(int -> float) ->
  past list ->
  int ->
  int option * past

(** The snapshot codec of a {!past}: its site, then its dual. *)
val w_past : Omflp_prelude.Snapshot_codec.writer -> past -> unit

val r_past : Omflp_prelude.Snapshot_codec.reader -> past
