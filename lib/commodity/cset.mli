(** Commodity sets: subsets of the commodity universe [S = {0, ..., k-1}].

    Thin semantic wrapper over {!Omflp_prelude.Bitset}: configurations of
    facilities (the paper's [σ ⊆ S]) and demand sets of requests (the
    paper's [s_r ⊆ S]) are both values of this type. *)

type t = Omflp_prelude.Bitset.t

(** [empty ~n_commodities] is [∅] in a universe of the given size. *)
val empty : n_commodities:int -> t

(** [full ~n_commodities] is the whole commodity set [S]. *)
val full : n_commodities:int -> t

(** [singleton ~n_commodities e] is [{e}]. *)
val singleton : n_commodities:int -> int -> t

(** [of_list ~n_commodities es] builds a set from element list. *)
val of_list : n_commodities:int -> int list -> t

val n_commodities : t -> int
val mem : t -> int -> bool
val cardinal : t -> int
val is_empty : t -> bool
val is_full : t -> bool
val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val subset : t -> t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val iter : (int -> unit) -> t -> unit
val for_all : (int -> bool) -> t -> bool
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val elements : t -> int list
val add : t -> int -> t
val remove : t -> int -> t

(** [all_subsets ~n_commodities] enumerates every [σ ⊆ S] (2^|S| sets, in
    bit-pattern order). Raises [Invalid_argument] if [n_commodities > 20]
    to prevent accidental blow-ups. *)
val all_subsets : n_commodities:int -> t list

(** [all_nonempty_subsets ~n_commodities] as above without [∅]. *)
val all_nonempty_subsets : n_commodities:int -> t list

(** [subsets_of t] enumerates the subsets of [t] (including [∅] and [t]).
    Raises [Invalid_argument] if [cardinal t > 20]. *)
val subsets_of : t -> t list

(** Snapshot codec v2 field serializers: universe size + backing words.
    [read] raises [Failure] on malformed bytes. *)
val write : Omflp_prelude.Snapshot_codec.writer -> t -> unit

val read : Omflp_prelude.Snapshot_codec.reader -> t

val pp : Format.formatter -> t -> unit
