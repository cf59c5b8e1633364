(** GREEDY — a natural rent-or-buy heuristic with no competitive
    guarantee: each request picks the cheapest immediate option among
    per-commodity connect-or-open-at-own-site, opening its exact demand
    set at its own site, or connecting to an existing large facility.

    It never predicts commodities (beyond its own demand), so the
    Theorem 2 adversary defeats it — which is exactly the behaviour the
    lower-bound experiment demonstrates. *)

type t

val name : string
val family : Omflp_instance.Problem_env.Family.t

val create : ?seed:int -> Omflp_instance.Problem_env.t -> t

val step : t -> Omflp_instance.Request.t -> Service.t

val run_so_far : t -> Run.t
val store : t -> Facility_store.t

(** See {!Algo_intf.ALGO}: byte-identical continuation. *)
val snapshot : t -> string

val restore : Omflp_instance.Problem_env.t -> string -> t
