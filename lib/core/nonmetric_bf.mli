(** NONMETRIC-BF — deterministic online non-metric facility location
    after Bienkowski–Feldkord (arXiv:2007.07025): multiplicative-update
    fractional covering per (commodity, site) with deterministic
    threshold rounding, plus one greedy weighted-cover step
    ({!Omflp_covering.Set_cover}) to close any integrally uncovered
    demand. Declares the [Nonmetric_fl] family; connection costs come
    from the environment's raw matrix. *)

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
