(** RAND-OMFLP — the paper's randomized algorithm (Algorithm 2),
    O(√|S| · log n / log log n)-competitive in expectation.

    Facility costs are rounded down to powers of two and grouped into
    classes per configuration (only singletons and the full set matter).
    On an arrival the expected connection cost
    [min{X(r), Z(r)}] is matched, in expectation, by the amounts spent on
    small and large facilities: every class receives a share proportional
    to the distance improvement it would bring, divided by its cost
    (Lemma 20's balance). A deterministic fallback opens the facility
    realizing [X(r,e)] when the coin flips left a commodity unserveable —
    this never exceeds what the analysis already charges. *)

type t

val name : string
val family : Omflp_instance.Problem_env.Family.t

val create : ?seed:int -> Omflp_instance.Problem_env.t -> t

val step : t -> Omflp_instance.Request.t -> Service.t

val run_so_far : t -> Run.t

val store : t -> Facility_store.t

(** See {!Algo_intf.ALGO}: byte-identical continuation; the blob carries
    the RNG position, so the restored run continues the coin-flip stream
    exactly where the snapshot left it (the creation seed is not
    consulted again). *)
val snapshot : t -> string

val restore : Omflp_instance.Problem_env.t -> string -> t
