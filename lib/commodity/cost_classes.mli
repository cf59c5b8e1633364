(** Power-of-two facility cost classes (Section 4).

    RAND-OMFLP rounds every facility cost [f^σ_m] down to the nearest power
    of two and groups the sites by the rounded value; the resulting ordered
    classes [C^σ_1 < C^σ_2 < ...] drive its per-class opening
    probabilities. Only the configurations the algorithm ever opens are
    materialised: the singletons [{e}] and the full set [S]. Meyerson's
    single-commodity OFL builds its classes with {!of_costs} and searches
    them with {!nearest} and {!build_estimate}. *)

type key = Single of int  (** configuration [{e}] *) | All  (** configuration [S] *)

type cls = {
  cost : float;  (** the rounded class cost [C^σ_i] *)
  sites : int array;  (** sites whose rounded cost equals [cost] *)
}

type t

(** [of_costs costs] is the class array of one configuration whose cost
    at site [m] is [costs.(m)], ordered as {!classes}; sites ascend
    within a class. Raises [Invalid_argument] on a negative cost. *)
val of_costs : float array -> cls array

(** [build cost] precomputes the classes of every singleton configuration
    and of [S] over all sites of [cost]. Costs of exactly 0 are kept in a
    dedicated first class with [cost = 0]. *)
val build : Cost_function.t -> t

(** [classes t key] is the ordered class array (strictly increasing
    [cost]). *)
val classes : t -> key -> cls array

(** [n_classes t key]. *)
val n_classes : t -> key -> int

(** [cumulative_min_dist t key ~dist_to ~upto] is
    [min_{j <= upto} min_{m ∈ class j} dist_to m] — the cumulative-minimum
    distance [D_i(r)] used for the per-class improvement terms. [upto] is a
    0-based class index; raises [Invalid_argument] when out of range. *)
val cumulative_min_dist : t -> key -> dist_to:(int -> float) -> upto:int -> float

(** [build_estimate cs cum] is [min_i (cs.(i).cost +. cum.(i))]: given the
    cumulative-minimum distances [cum] of the classes [cs], the cheapest
    build-and-connect estimate. *)
val build_estimate : cls array -> float array -> float

(** [nearest cls ~dist_to] is the (site, distance) of the closest site of
    [cls]; on equal distances the lowest site wins. *)
val nearest : cls -> dist_to:(int -> float) -> int * float

(** [nearest_site_in_class t key ~dist_to ~cls_idx] is {!nearest} on
    class [cls_idx]. *)
val nearest_site_in_class :
  t -> key -> dist_to:(int -> float) -> cls_idx:int -> int * float

(** [round_down_pow2 v] rounds a positive cost down to a power of two;
    [0.] maps to [0.]. *)
val round_down_pow2 : float -> float
