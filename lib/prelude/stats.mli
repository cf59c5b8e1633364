(** Summary statistics for experiment reporting. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;  (** sample standard deviation (n-1 denominator) *)
  min : float;
  max : float;
  median : float;
  p90 : float;
}

(** [summarize xs] computes a {!summary}. Raises [Invalid_argument] on an
    empty array. *)
val summarize : float array -> summary

val mean : float array -> float
val stddev : float array -> float

(** [percentile xs p] is the p-th percentile (0 ≤ p ≤ 100), linear
    interpolation between closest ranks. *)
val percentile : float array -> float -> float

(** [ci95 xs] is the half-width of a normal-approximation 95% confidence
    interval on the mean. *)
val ci95 : float array -> float

(** [geometric_mean xs] for positive entries. *)
val geometric_mean : float array -> float
