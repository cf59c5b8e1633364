(** [c]-ordered covering (Definition 9) and its [2cH_n] covering procedure
    (Lemmas 10–12).

    An instance over elements [0 .. n-1] is given by the monotone family
    [B_0 ⊆ B_1 ⊆ ... ⊆ B_{n-1}] with [B_i ⊆ {0, ..., i-1}];
    [A_i = {0, ..., i-1} ∖ B_i] is implied. The available sets are, for
    every [i], the singleton [{i}] with weight [c / (|B_i| + 1)] and
    [{i} ∪ A_i] with weight [c].

    This machinery is the combinatorial core of the deterministic
    algorithm's dual-feasibility proof; here it is executable so the
    [2cH_n] bound (Lemma 12) can be property-tested. *)

type t

(** [make ~c bs] builds an instance from the family [B_i] ([bs.(i)] is a
    bitset over the universe [n = Array.length bs]). Raises
    [Invalid_argument] if [c <= 0], some [B_i] contains an element [>= i],
    or monotonicity [B_i ⊆ B_{i+1}] fails. *)
val make : c:float -> Omflp_prelude.Bitset.t array -> t

val n : t -> int
val c : t -> float

(** [a_set t i] is [A_i = {0, ..., i-1} ∖ B_i]. *)
val a_set : t -> int -> Omflp_prelude.Bitset.t

type choice =
  | Take_singletons of int list  (** one set [{i}] per listed element *)
  | Take_coping of int  (** the set [{i} ∪ A_i] for the listed element *)

type cover = { total_weight : float; rounds : choice list }

(** [solve t] runs the Lemma 10–12 procedure: repeatedly cover the last
    block with the cheaper of the two choices and remove the covered
    elements. The returned [total_weight] is guaranteed (and tested) to be
    at most [2 c H_n]. *)
val solve : t -> cover

(** [covered_elements t cover] re-derives the union of covered elements;
    equals the whole universe for a cover returned by {!solve}. *)
val covered_elements : t -> cover -> Omflp_prelude.Bitset.t

(** [weight_of_choice t choice] recomputes a single choice's weight. *)
val weight_of_choice : t -> choice -> float

(** [bound t] is the Lemma 12 guarantee [2 c H_n]. *)
val bound : t -> float

(** [random rng ~n ~c ~growth_p] draws a valid random instance:
    [B_i] extends [B_{i-1}] with each eligible element independently with
    probability [growth_p]. *)
val random : Omflp_prelude.Splitmix.t -> n:int -> c:float -> growth_p:float -> t
