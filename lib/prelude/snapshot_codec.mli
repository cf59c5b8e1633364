(** Versioned fixed-layout binary envelopes for algorithm state snapshots
    (codec v2 — Marshal-free).

    Every online algorithm serializes its persisted state through this
    codec with explicit field serializers: [encode ~tag emit] frames the
    bytes [emit] writes as

    {v "omflp.snap2" '\n' tag '\n' payload md5 v}

    where [md5] is the 16-byte MD5 of everything before it, and
    [decode ~tag read blob] verifies the magic, the tag
    ("omflp.snap.<algo>.v<n>"), and the digest before handing [read] a
    bounds-checked reader over the payload. Unlike the old Marshal
    envelope, the layout is stable across compiler versions and hostile
    bytes can only produce a named [Failure] — never memory-unsafe
    unmarshalling. Floats travel as their IEEE-754 bits and round-trip
    bit-exactly; that exactness is what lets a restored algorithm produce
    byte-identical decisions.

    Encoding allocates about what it produces: the writer fills chunks
    that are never regrown or copied, fixed-width fields are stored into
    them without boxing, and [encode] copies the chunks once into the
    exact-size result, MD5 trailer included. *)

(** Accumulates payload bytes during encoding, in a 1 KiB first chunk
    and then fixed 64 KiB chunks, none ever regrown. Only [encode]
    creates one. *)
type writer

(** Cursor over a verified payload. All [r_*] readers bounds-check and
    raise [Failure] (prefixed "Snapshot_codec") on truncation, hostile
    lengths, or malformed tag bytes. *)
type reader

(** One byte: [n land 0xff]. *)
val w_u8 : writer -> int -> unit

val w_int : writer -> int -> unit
val w_i64 : writer -> int64 -> unit
val w_bool : writer -> bool -> unit

(** Floats are written as [Int64.bits_of_float] — bit-exact round-trip. *)
val w_float : writer -> float -> unit

val w_string : writer -> string -> unit
val w_opt : (writer -> 'a -> unit) -> writer -> 'a option -> unit
val w_list : (writer -> 'a -> unit) -> writer -> 'a list -> unit
val w_array : (writer -> 'a -> unit) -> writer -> 'a array -> unit
val w_float_array : writer -> float array -> unit

(** [w_float_sub w a off len] writes the bytes of
    [w_float_array w (Array.sub a off len)] without making the copy.
    Raises [Invalid_argument] if [off] and [len] do not designate a valid
    slice of [a]. *)
val w_float_sub : writer -> float array -> int -> int -> unit

val w_int_array : writer -> int array -> unit

val r_u8 : reader -> int
val r_int : reader -> int
val r_i64 : reader -> int64
val r_bool : reader -> bool
val r_float : reader -> float
val r_string : reader -> string
val r_opt : (reader -> 'a) -> reader -> 'a option
val r_list : (reader -> 'a) -> reader -> 'a list
val r_array : (reader -> 'a) -> reader -> 'a array
val r_float_array : reader -> float array
val r_int_array : reader -> int array

(** [encode ~tag emit] frames the payload written by [emit] under [tag]
    and appends the MD5 footer. Raises [Invalid_argument] if [tag]
    contains a newline. *)
val encode : tag:string -> (writer -> unit) -> string

(** [decode ~tag read blob] verifies magic, tag, and MD5 footer, applies
    [read] to the payload, and checks that [read] consumed it fully.
    Raises [Failure] with a message naming [tag] on a foreign or
    damaged blob. *)
val decode : tag:string -> (reader -> 'a) -> string -> 'a
