(* Versioned fixed-layout binary envelope for algorithm state blobs.

   Wire format (codec v2):

     "omflp.snap2" '\n' tag '\n' payload md5

   where [payload] is written by explicit field serializers (the writer
   combinators below; every variable-length value is length-prefixed) and
   [md5] is the 16-byte MD5 of everything before it. Unlike the v1
   Marshal envelope this layout is stable across compiler versions,
   carries its own integrity check, and never interprets attacker-
   controlled bytes as heap structure: every read is bounds-checked and
   every length is validated against the bytes that remain, so a
   truncated or corrupted blob raises a named [Failure] instead of
   crashing.

   Integers travel as 64-bit little-endian; floats as the little-endian
   IEEE-754 bits ([Int64.bits_of_float]), which round-trips them
   bit-exactly — the property the byte-identical resume contract rests
   on. *)

let magic = "omflp.snap2"
let digest_len = 16

let fail fmt = Printf.ksprintf failwith fmt

(* ---------- writing ---------- *)

(* The payload accumulates in chunks that are filled once and never
   regrown or copied: a small first one, so a tiny snapshot allocates
   little beyond its result, then fixed [chunk_size] ones. A snapshot
   therefore costs its chunks plus the one exact-size copy [encode]
   returns. A fixed-width field never straddles two chunks — a chunk
   with too little room left is closed early and remembers its fill —
   while raw string bytes spill over into as many chunks as they
   need. *)

let first_chunk = 1024
let chunk_size = 65536

type writer = {
  mutable chunk : Bytes.t; (* being filled *)
  mutable pos : int; (* bytes used in [chunk] *)
  mutable closed : (Bytes.t * int) list; (* (chunk, fill), newest first *)
  mutable closed_len : int; (* bytes in [closed] *)
}

external unsafe_set_i64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external bswap64 : int64 -> int64 = "%bswap_int64"
external big_endian : unit -> bool = "%big_endian"

let next_chunk w =
  w.closed <- (w.chunk, w.pos) :: w.closed;
  w.closed_len <- w.closed_len + w.pos;
  w.chunk <- Bytes.create chunk_size;
  w.pos <- 0

(* [slots w n] makes room for at least one 8-byte field and returns how
   many of [n] more fit in the current chunk. *)
let slots w n =
  if Bytes.length w.chunk - w.pos < 8 then next_chunk w;
  min n ((Bytes.length w.chunk - w.pos) / 8)

(* Inlined so the int64 goes from its producer into the bytes unboxed. *)
let[@inline] set_le b pos v =
  unsafe_set_i64 b pos (if big_endian () then bswap64 v else v)

let[@inline] w_i64 w v =
  if Bytes.length w.chunk - w.pos < 8 then next_chunk w;
  set_le w.chunk w.pos v;
  w.pos <- w.pos + 8

let w_int w n = w_i64 w (Int64.of_int n)
let w_float w v = w_i64 w (Int64.bits_of_float v)

let w_u8 w n =
  if w.pos = Bytes.length w.chunk then next_chunk w;
  Bytes.unsafe_set w.chunk w.pos (Char.unsafe_chr (n land 0xff));
  w.pos <- w.pos + 1

let w_bool w v = w_u8 w (if v then 1 else 0)

(* [s]'s bytes with no length prefix. *)
let w_raw w s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    if w.pos = Bytes.length w.chunk then next_chunk w;
    let k = min (len - !off) (Bytes.length w.chunk - w.pos) in
    Bytes.blit_string s !off w.chunk w.pos k;
    w.pos <- w.pos + k;
    off := !off + k
  done

let w_string w s =
  w_int w (String.length s);
  w_raw w s

let w_opt w b = function
  | None -> w_u8 b 0
  | Some v ->
      w_u8 b 1;
      w b v

let w_list w b xs =
  w_int b (List.length xs);
  List.iter (w b) xs

let w_array w b xs =
  w_int b (Array.length xs);
  Array.iter (w b) xs

(* The two flat-array writers store element by element straight from the
   array: no per-element boxing and no copy of the slice. *)
let w_float_sub w (a : float array) off len =
  if off < 0 || len < 0 || off > Array.length a - len then
    invalid_arg "Snapshot_codec.w_float_sub";
  w_int w len;
  let i = ref off and stop = off + len in
  while !i < stop do
    let k = slots w (stop - !i) in
    let b = w.chunk and p = w.pos and i0 = !i in
    for j = 0 to k - 1 do
      set_le b (p + (8 * j)) (Int64.bits_of_float (Array.unsafe_get a (i0 + j)))
    done;
    w.pos <- p + (8 * k);
    i := i0 + k
  done

let w_float_array w a = w_float_sub w a 0 (Array.length a)

let w_int_array w (a : int array) =
  let n = Array.length a in
  w_int w n;
  let i = ref 0 in
  while !i < n do
    let k = slots w (n - !i) in
    let b = w.chunk and p = w.pos and i0 = !i in
    for j = 0 to k - 1 do
      set_le b (p + (8 * j)) (Int64.of_int (Array.unsafe_get a (i0 + j)))
    done;
    w.pos <- p + (8 * k);
    i := i0 + k
  done

(* ---------- reading ---------- *)

type reader = { buf : string; limit : int; mutable pos : int }

let need r n =
  if n < 0 || r.limit - r.pos < n then
    fail "Snapshot_codec: truncated snapshot (need %d bytes at offset %d)" n
      r.pos

let r_u8 r =
  need r 1;
  let c = Char.code r.buf.[r.pos] in
  r.pos <- r.pos + 1;
  c

let r_i64 r =
  need r 8;
  let v = String.get_int64_le r.buf r.pos in
  r.pos <- r.pos + 8;
  v

let r_int r =
  let v = r_i64 r in
  let n = Int64.to_int v in
  if Int64.of_int n <> v then
    fail "Snapshot_codec: integer out of range at offset %d" (r.pos - 8);
  n

let r_bool r =
  match r_u8 r with
  | 0 -> false
  | 1 -> true
  | n -> fail "Snapshot_codec: bad bool byte %d at offset %d" n (r.pos - 1)

let r_float r = Int64.float_of_bits (r_i64 r)

let r_string r =
  let n = r_int r in
  need r n;
  let s = String.sub r.buf r.pos n in
  r.pos <- r.pos + n;
  s

(* Validate an element count against the bytes that remain, assuming each
   element occupies at least [elt_bytes] — rejects hostile counts before
   any allocation happens. *)
let r_count r ~elt_bytes =
  let n = r_int r in
  if n < 0 || (elt_bytes > 0 && n > (r.limit - r.pos) / elt_bytes) then
    fail "Snapshot_codec: bad element count %d at offset %d" n (r.pos - 8);
  n

let r_opt rd r =
  match r_u8 r with
  | 0 -> None
  | 1 -> Some (rd r)
  | n -> fail "Snapshot_codec: bad option byte %d at offset %d" n (r.pos - 1)

let r_list rd r =
  let n = r_count r ~elt_bytes:1 in
  let rec go k acc = if k = 0 then List.rev acc else go (k - 1) (rd r :: acc) in
  go n []

(* Explicit loop: [Array.init]'s evaluation order is unspecified, and the
   reader is stateful. *)
let r_array rd r =
  let n = r_count r ~elt_bytes:1 in
  if n = 0 then [||]
  else begin
    let a = Array.make n (rd r) in
    for i = 1 to n - 1 do
      a.(i) <- rd r
    done;
    a
  end

let r_float_array r =
  let n = r_count r ~elt_bytes:8 in
  let a = Array.make n 0.0 in
  for i = 0 to n - 1 do
    a.(i) <- r_float r
  done;
  a

let r_int_array r =
  let n = r_count r ~elt_bytes:8 in
  let a = Array.make n 0 in
  for i = 0 to n - 1 do
    a.(i) <- r_int r
  done;
  a

(* ---------- envelope ---------- *)

let encode ~tag emit =
  if String.contains tag '\n' then
    invalid_arg "Snapshot_codec.encode: tag contains a newline";
  let w =
    { chunk = Bytes.create first_chunk; pos = 0; closed = []; closed_len = 0 }
  in
  w_raw w magic;
  w_u8 w (Char.code '\n');
  w_raw w tag;
  w_u8 w (Char.code '\n');
  emit w;
  (* The result is the only copy: the chunks are blitted into it at their
     offsets (newest chunk last) and the digest lands behind them. *)
  let body_len = w.closed_len + w.pos in
  let out = Bytes.create (body_len + digest_len) in
  Bytes.blit w.chunk 0 out w.closed_len w.pos;
  ignore
    (List.fold_left
       (fun stop (c, n) ->
         Bytes.blit c 0 out (stop - n) n;
         stop - n)
       w.closed_len w.closed);
  Bytes.blit_string (Digest.subbytes out 0 body_len) 0 out body_len digest_len;
  Bytes.unsafe_to_string out

let decode ~tag read blob =
  let header = magic ^ "\n" ^ tag ^ "\n" in
  let hlen = String.length header in
  let len = String.length blob in
  if len < hlen + digest_len || String.sub blob 0 hlen <> header then
    fail "Snapshot_codec.decode: blob is not a %S snapshot" tag;
  let body_len = len - digest_len in
  let stored = String.sub blob body_len digest_len in
  if not (Digest.equal stored (Digest.substring blob 0 body_len)) then
    fail "Snapshot_codec.decode: %S snapshot failed its integrity check" tag;
  let r = { buf = blob; limit = body_len; pos = hlen } in
  let v = read r in
  if r.pos <> r.limit then
    fail "Snapshot_codec.decode: %S snapshot has %d trailing payload bytes" tag
      (r.limit - r.pos);
  v
