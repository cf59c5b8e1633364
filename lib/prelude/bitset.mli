(** Fixed-universe bitsets.

    A value of type {!t} represents a subset of [{0, ..., universe - 1}].
    All binary operations require both operands to share the same universe
    size and raise [Invalid_argument] otherwise. Values are immutable from
    the outside: every operation returns a fresh set. *)

type t

(** [create universe] is the empty subset of [{0, ..., universe - 1}].
    Raises [Invalid_argument] if [universe < 0]. *)
val create : int -> t

(** [universe t] is the size of the universe [t] draws its elements from. *)
val universe : t -> int

(** [is_empty t] is [true] iff [t] contains no element. *)
val is_empty : t -> bool

(** [mem t i] tests membership. Raises [Invalid_argument] if [i] is outside
    the universe. *)
val mem : t -> int -> bool

(** [add t i] is [t ∪ {i}]. *)
val add : t -> int -> t

(** [remove t i] is [t ∖ {i}]. *)
val remove : t -> int -> t

(** [singleton universe i] is [{i}] inside [{0, ..., universe - 1}]. *)
val singleton : int -> int -> t

(** [full universe] is the whole universe. *)
val full : int -> t

(** [union a b] is [a ∪ b]. *)
val union : t -> t -> t

(** [inter a b] is [a ∩ b]. *)
val inter : t -> t -> t

(** [diff a b] is [a ∖ b]. *)
val diff : t -> t -> t

(** [complement t] is the universe minus [t]. *)
val complement : t -> t

(** [subset a b] is [true] iff [a ⊆ b]. *)
val subset : t -> t -> bool

(** [equal a b] is set equality (universes must match). *)
val equal : t -> t -> bool

(** [compare] is a total order compatible with {!equal}. *)
val compare : t -> t -> int

(** [cardinal t] is [|t|]. *)
val cardinal : t -> int

(** [iter f t] applies [f] to each element in increasing order. *)
val iter : (int -> unit) -> t -> unit

(** [fold f t init] folds over elements in increasing order. *)
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

(** [elements t] lists the elements in increasing order. *)
val elements : t -> int list

(** [of_list universe is] builds a set from a list of elements. *)
val of_list : int -> int list -> t

(** [choose t] is the smallest element of [t]. Raises [Not_found] if empty. *)
val choose : t -> int

(** [for_all p t] tests whether all elements satisfy [p]. *)
val for_all : (int -> bool) -> t -> bool

(** [hash t] is a hash compatible with {!equal}. *)
val hash : t -> int

(** [to_int t] encodes [t] as a bit pattern in a single [int].
    Raises [Invalid_argument] if the universe exceeds 62. *)
val to_int : t -> int

(** [of_int universe bits] decodes a bit pattern produced by {!to_int}. *)
val of_int : int -> int -> t

(** [to_words t] is a copy of the backing 62-bit word array, lowest
    indices first — the serialization companion of {!of_words}. *)
val to_words : t -> int array

(** [of_words universe words] rebuilds a set from {!to_words} output.
    Raises [Invalid_argument] on a wrong word count or bits outside the
    universe. *)
val of_words : int -> int array -> t

(** [pp] prints as [{e1, e2, ...}]. *)
val pp : Format.formatter -> t -> unit
