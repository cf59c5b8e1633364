(** Small numeric helpers shared across the library. *)

(** Comparison tolerance used throughout the primal–dual machinery. *)
val eps : float

(** [approx_eq ?tol a b] is true when [|a - b| <= tol * max(1, |a|, |b|)]. *)
val approx_eq : ?tol:float -> float -> float -> bool

(** [approx_le ?tol a b] is [a <= b + slack] with the same relative slack. *)
val approx_le : ?tol:float -> float -> float -> bool

(** [pos a] is [max a 0.], the [(·)₊] operator of the paper. *)
val pos : float -> float

(** [kahan_sum xs] sums a float array with compensated summation. *)
val kahan_sum : float array -> float

(** [harmonic n] is the n-th harmonic number H_n = Σ_{k=1}^n 1/k
    (exact summation for small n, asymptotic expansion beyond 10⁶). *)
val harmonic : int -> float

(** [floor_pow2 x] rounds a positive float down to the nearest power of two
    (including negative powers). Raises [Invalid_argument] on
    non-positive input. *)
val floor_pow2 : float -> float

(** [log_over_loglog n] is [ln n / ln ln n] for n ≥ 3, and 1.0 below;
    the paper's randomized-bound denominator. *)
val log_over_loglog : int -> float

(** [ceil_div a b] is ⌈a / b⌉ for positive ints. *)
val ceil_div : int -> int -> int

(** [isqrt n] is ⌊√n⌋ for [n >= 0]. *)
val isqrt : int -> int
