(** PD-OMFLP — the paper's deterministic primal–dual algorithm
    (Algorithm 1), O(√|S| · log n)-competitive under Condition 1.

    On the arrival of a request [r] demanding [s_r], the dual variables
    [a_re] of all unserved commodities rise simultaneously until one of the
    four constraints becomes tight:

    + [a_re = d(F(e), r)] — connect commodity [e] to an existing facility;
    + [Σ a_re = d(F̂, r)] — connect the whole request to an existing large
      facility;
    + the bids towards a small facility [{e}] at some site [m] reach
      [f^{{e}}_m] — tentatively open it;
    + the bids towards a large facility at [m] reach [f^S_m] — open it,
      discarding tentative small facilities.

    Bid sums of past requests are constant during one arrival (facilities
    only open when processing ends), so each tightness time is computed in
    closed form. The constraint-(3)/(4) bid sums are maintained across
    arrivals — O(|s_r| · |M|) per recorded request plus O(affected · |M|)
    per facility opening — instead of being recomputed from the whole
    history on every arrival. *)

type t

val name : string
val family : Omflp_instance.Problem_env.Family.t

val create : ?seed:int -> Omflp_instance.Problem_env.t -> t

val step : t -> Omflp_instance.Request.t -> Service.t

val run_so_far : t -> Run.t

(** {1 Snapshot / restore}

    See {!Algo_intf.ALGO}: byte-identical continuation. The blob carries
    the maintained bid caches verbatim. [restore] raises [Failure] on a
    blob of the retired recomputing mode (mode byte [false], no caches),
    which cannot continue byte-identically. *)

val snapshot : t -> string

val restore : Omflp_instance.Problem_env.t -> string -> t

(** {1 Introspection (analysis and tests)} *)

type dual_record = {
  site : int;
  demand : Omflp_commodity.Cset.t;
  duals : float array;  (** [a_re] per commodity; meaningful on [demand] *)
  dual_sum : float;  (** [Σ_{e ∈ s_r} a_re] *)
}

(** [dual_records t] returns one record per processed request, in arrival
    order. *)
val dual_records : t -> dual_record list

(** Which constraint of Algorithm 1 fired, in firing order, while a
    request was processed. *)
type fired =
  | Connected_small of { commodity : int; facility : int; dual : float }
      (** constraint (1): connected to an existing facility *)
  | Opened_small of { commodity : int; site : int; dual : float }
      (** constraint (3): tentative small facility, later confirmed *)
  | Connected_large of { facility : int; dual_sum : float }
      (** constraint (2): whole request to an existing large facility *)
  | Opened_large of { site : int; dual_sum : float }
      (** constraint (4): new large facility, tentatives discarded *)

(** [trace t] is the per-request event log, in arrival order. Events of a
    request that ended in constraint (2)/(4) include the discarded
    tentative openings — they reflect the process, not the outcome. *)
val trace : t -> fired list list

(** [dual_objective t] is [Σ_r Σ_e a_re] — by Corollary 8 at least a third
    of the algorithm's total cost. *)
val dual_objective : t -> float

val store : t -> Facility_store.t

(** [cache_drift t] recomputes the bid sums from scratch and returns the
    largest absolute deviation from the maintained caches — 0 up to float
    noise when the cache maintenance is correct. The reference for the
    oracle's [bid-cache] check and the cache tests. *)
val cache_drift : t -> float
