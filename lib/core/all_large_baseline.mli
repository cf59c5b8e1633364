(** ALL-LARGE — the always-predict extreme: a primal–dual Online Facility
    Location run where every facility offers the full commodity set [S]
    and costs [f^S_m], and every request connects as a unit.

    The dual of INDEP: optimal-ish when demands overlap heavily, wasteful
    when the optimum would scatter cheap small facilities (e.g. linear
    construction cost). *)

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
