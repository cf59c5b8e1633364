(** Distribution samplers built on {!Splitmix}.

    Every sampler takes the generator explicitly so call sites stay
    deterministic and reproducible. *)

(** [uniform_float rng ~lo ~hi] is uniform on [[lo, hi)]. *)
val uniform_float : Splitmix.t -> lo:float -> hi:float -> float

(** [gaussian rng ~mean ~stddev] draws from N(mean, stddev²)
    (Box–Muller). *)
val gaussian : Splitmix.t -> mean:float -> stddev:float -> float

(** [zipf rng ~n ~s] draws a rank in [[0, n)] with P(k) ∝ 1/(k+1)^s.
    Uses an exact CDF table (rebuilt per call is avoided via {!zipf_table}). *)
val zipf : Splitmix.t -> n:int -> s:float -> int

(** [zipf_table ~n ~s] precomputes the CDF; [zipf_draw rng table] samples
    from it in O(log n). *)
val zipf_table : n:int -> s:float -> float array

val zipf_draw : Splitmix.t -> float array -> int

(** [shuffle rng arr] permutes [arr] in place (Fisher–Yates). *)
val shuffle : Splitmix.t -> 'a array -> unit

(** [sample_without_replacement rng ~n ~k] draws [k] distinct values from
    [[0, n)], in uniformly random order. Raises [Invalid_argument] if
    [k > n] or [k < 0]. *)
val sample_without_replacement : Splitmix.t -> n:int -> k:int -> int array

(** [hypergeometric rng ~population ~successes ~draws] counts how many of
    [draws] draws without replacement from a [population]-sized urn with
    [successes] marked elements are marked. Exact urn simulation. *)
val hypergeometric :
  Splitmix.t -> population:int -> successes:int -> draws:int -> int

(** [categorical rng weights] draws index [i] with probability
    [weights.(i) / Σ weights]. Raises [Invalid_argument] on an empty or
    non-positive-total weight vector. *)
val categorical : Splitmix.t -> float array -> int

(** [random_subset rng ~universe ~p] includes each element of
    [[0, universe)] independently with probability [p]. *)
val random_subset : Splitmix.t -> universe:int -> p:float -> Bitset.t

(** [random_subset_of_size rng ~universe ~k] is a uniformly random subset
    of size exactly [k]. *)
val random_subset_of_size : Splitmix.t -> universe:int -> k:int -> Bitset.t
