(** Weighted set cover: greedy (H_n-approximate) and exact (bitmask DP).

    Used by the offline solvers: the Ravi–Sinha-style greedy reduces the
    MFLP to repeated weighted-cover steps, and the exact DP certifies small
    cases. *)

open Omflp_prelude

type set = { weight : float; members : Bitset.t }

(** [greedy ~universe sets] covers [{0, ..., universe-1}] with a greedy
    minimum weight-per-new-element rule. Returns the chosen set indices in
    pick order with the total weight. Raises [Invalid_argument] if the
    union of all sets does not cover the universe or a weight is
    negative. *)
val greedy : universe:int -> set array -> int list * float

(** [greedy_partial ~target sets] covers only [target] (a subset of the
    sets' universe). *)
val greedy_partial : target:Bitset.t -> set array -> int list * float

(** [exact ~universe sets] finds a minimum-weight cover via DP over element
    masks. Universe limited to 20. Returns chosen indices and weight. *)
val exact : universe:int -> set array -> int list * float
