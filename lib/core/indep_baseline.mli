(** INDEP — the trivial baseline of Section 1.3: one independent instance
    of (deterministic, primal–dual) Online Facility Location per
    commodity, each opening only small facilities with cost [f^{{e}}_m].
    O(|S| · log n)-competitive; never aggregates commodities, so the
    Theorem 2 adversary forces a Θ(√|S|) gap against PD-OMFLP. *)

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
