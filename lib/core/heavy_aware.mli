(** HEAVY-AWARE PD — the paper's Section 5 proposal, implemented.

    "Naturally, one could simply run our algorithms in which the heavy
    commodities are excluded such that a large facility becomes one
    including all non-heavy commodities. This reflects the intuition that
    heavy commodities should be avoided as far as possible."

    The algorithm detects heavy commodities ({!Heavy.detect}), runs
    PD-OMFLP on the instance projected to the light sub-universe (its
    "large" facilities offer exactly the light commodities), and serves
    each heavy commodity with an independent per-commodity primal–dual
    OFL. On cost functions satisfying Condition 1 nothing is heavy and
    the algorithm coincides with PD-OMFLP; with heavy commodities present
    it avoids paying their surcharge in every large facility. *)

type t

val name : string
val family : Omflp_instance.Problem_env.Family.t

val create : ?seed:int -> Omflp_instance.Problem_env.t -> t

(** [create_with_heavy ~heavy metric cost] overrides detection. *)
val create_with_heavy :
  heavy:Omflp_commodity.Cset.t -> Omflp_instance.Problem_env.t -> t

val step : t -> Omflp_instance.Request.t -> Service.t

val run_so_far : t -> Run.t
val store : t -> Facility_store.t

(** See {!Algo_intf.ALGO}: byte-identical continuation. The blob records
    the heavy set itself, so runs started with {!create_with_heavy}
    restore faithfully without re-running detection. *)
val snapshot : t -> string

val restore : Omflp_instance.Problem_env.t -> string -> t

(** [heavy_set t] is the commodity set treated as heavy. *)
val heavy_set : t -> Omflp_commodity.Cset.t
