(** LEASE-PD — multi-facility leasing primal–dual after Markarian et al.
    (arXiv:2006.16762) on the Fotakis-style PD core: facilities open as
    leases of one of K types (duration × cost factor from the
    environment), past requests bid toward a (site, lease type) pair
    only inside the lease's time window, and requests connect to live
    leases only. Declares the [Multi_facility_leasing] family. *)

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
