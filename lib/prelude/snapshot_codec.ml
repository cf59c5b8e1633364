(* Versioned fixed-layout segments for algorithm state, and the chains
   they form.

   Wire format (codec v3), one segment:

     "omflp.snap3" '\n' tag '\n' kind from count len ~len payload md5

   [kind] is one byte (0 base, 1 delta); [from] and [count] are the
   request counts the segment starts from and covers (a base starts from
   0); [len] is the payload's length and [~len] its bitwise complement,
   so a damaged length is told apart from a segment cut short; [md5] is
   the 16-byte MD5 of everything before it. A chain is segments back to
   back: a base holds a whole state, and each delta what changed since
   the segment before it, so a delta's [from] is the previous segment's
   [count].

   The payload is written by explicit field serializers (the writer
   combinators below; every variable-length value is length-prefixed).
   The layout is stable across compiler versions and never interprets
   attacker-controlled bytes as heap structure: every read is
   bounds-checked and every length is validated against the bytes that
   remain, so a truncated or corrupted chain raises a named [Failure]
   instead of crashing.

   Integers travel as 64-bit little-endian; floats as the little-endian
   IEEE-754 bits ([Int64.bits_of_float]), which round-trips them
   bit-exactly — the property the byte-identical resume contract rests
   on. *)

let magic = "omflp.snap3\n"
let v2_magic = "omflp.snap2\n"
let digest_len = 16
let max_tag = 255

(* kind (1) + from, count, len, ~len (8 each) *)
let fixed_len = 33

let fail fmt = Printf.ksprintf failwith fmt

(* ---------- writing ---------- *)

(* The payload accumulates in chunks that are filled once and never
   regrown or copied: a small first one, so a tiny snapshot allocates
   little beyond its result, then fixed [chunk_size] ones. A snapshot
   therefore costs its chunks plus the one exact-size copy [segment]
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

(* ---------- segments ---------- *)

type kind = Base | Delta

let segment ~tag ~kind ~from ~count emit =
  if String.length tag > max_tag || String.contains tag '\n' then
    invalid_arg "Snapshot_codec: a tag is at most 255 bytes, with no newline";
  let w =
    { chunk = Bytes.create first_chunk; pos = 0; closed = []; closed_len = 0 }
  in
  w_raw w magic;
  w_raw w tag;
  w_u8 w (Char.code '\n');
  w_u8 w (match kind with Base -> 0 | Delta -> 1);
  w_int w from;
  w_int w count;
  (* The header fits the first chunk, so these offsets are also the
     result's; the length and its complement are filled in below. *)
  let len_at = w.pos in
  w_int w 0;
  w_int w 0;
  let payload_at = w.pos in
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
  let len = Int64.of_int (body_len - payload_at) in
  set_le out len_at len;
  set_le out (len_at + 8) (Int64.lognot len);
  Bytes.blit_string (Digest.subbytes out 0 body_len) 0 out body_len digest_len;
  Bytes.unsafe_to_string out

let base ~tag ~count emit = segment ~tag ~kind:Base ~from:0 ~count emit

(* ---------- streams: when to write a base ---------- *)

type stream = {
  mutable last : int; (* count of the last segment; -1 before the first *)
  mutable base_bytes : int; (* size of the last base *)
  mutable delta_bytes : int; (* deltas written since it *)
}

let stream () = { last = -1; base_bytes = 0; delta_bytes = 0 }

(* A base when nothing was written yet, or when the deltas since the
   last base have outgrown it: a chain then never holds much more than
   twice its state, and the bases written over a run add up to a
   geometric series, O(1) bytes per request. *)
let next st ~tag ~count emit =
  let kind =
    if st.last < 0 || st.delta_bytes > st.base_bytes then Base else Delta
  in
  let from = match kind with Base -> 0 | Delta -> st.last in
  let seg = segment ~tag ~kind ~from ~count (emit kind) in
  (match kind with
  | Base ->
      st.base_bytes <- String.length seg;
      st.delta_bytes <- 0
  | Delta -> st.delta_bytes <- st.delta_bytes + String.length seg);
  st.last <- count;
  seg

(* ---------- chains ---------- *)

type header = {
  h_tag : string;
  h_kind : kind;
  h_from : int;
  h_count : int;
  h_payload : int; (* offset of the payload *)
  h_stop : int; (* offset of the MD5, right behind the payload *)
}

type damage = Torn | Bad_header of string | Bad_digest

(* The bytes of [s] from [pos] to its end are a proper prefix of [lit]. *)
let cut_short s pos lit =
  let n = String.length s - pos in
  n < String.length lit && String.sub s pos n = String.sub lit 0 n

(* The header of the segment at [pos], when [s] holds all of it: its
   length fields agree and its bytes do not run past the end of [s]. A
   segment cut short anywhere is [Torn]; the MD5 is not checked here. *)
let read_header s pos ~tag =
  let len = String.length s in
  let t0 = pos + String.length magic in
  let head = String.sub s pos (min (String.length magic) (len - pos)) in
  if head <> magic then
    Error
      (if cut_short s pos magic then Torn
       else if head = v2_magic then Bad_header "a retired v2 snapshot"
       else Bad_header "bad magic")
  else
    let limit = min len (t0 + max_tag + 1) in
    let rec newline i =
      if i >= limit then -1 else if s.[i] = '\n' then i else newline (i + 1)
    in
    let t1 = newline t0 in
    let torn_tag () =
      limit = len
      && match tag with Some t -> cut_short s t0 (t ^ "\n") | None -> true
    in
    if t1 < 0 then
      Error (if torn_tag () then Torn else Bad_header "unterminated tag")
    else
      let t = String.sub s t0 (t1 - t0) in
      let f = t1 + 1 in
      let field k = String.get_int64_le s (f + 1 + (8 * k)) in
      let payload = f + fixed_len in
      match tag with
      | Some want when want <> t ->
          Error (Bad_header (Printf.sprintf "tag %S, not %S" t want))
      | _ when payload > len -> Error Torn
      | _ when s.[f] <> '\000' && s.[f] <> '\001' ->
          Error (Bad_header "bad segment kind")
      | _ when not (Int64.equal (field 3) (Int64.lognot (field 2))) ->
          Error (Bad_header "damaged payload length")
      | _ when Int64.compare (field 2) 0L < 0 ->
          Error (Bad_header "negative payload length")
      | _
        when Int64.compare (field 2) (Int64.of_int (len - payload - digest_len))
             > 0 ->
          Error Torn
      | _ ->
          let from = Int64.to_int (field 0) in
          let count = Int64.to_int (field 1) in
          if from < 0 || count < from then
            Error (Bad_header "bad request counts")
          else
            Ok
              {
                h_tag = t;
                h_kind = (if s.[f] = '\000' then Base else Delta);
                h_from = from;
                h_count = count;
                h_payload = payload;
                h_stop = payload + Int64.to_int (field 2);
              }

let segment_info seg =
  match read_header seg 0 ~tag:None with
  | Ok h when h.h_stop + digest_len = String.length seg ->
      (h.h_kind, h.h_from, h.h_count)
  | _ -> invalid_arg "Snapshot_codec.segment_info: not one whole segment"

type scan = {
  segments : int;
  count : int;
  valid : int;
  rest : damage option;
}

(* Checks each segment in order — header, MD5, and that the chain
   starts with a base and each delta starts where the segment before it
   ended — and hands it to [f]; stops at the first one that fails. *)
let walk ?tag s f =
  let len = String.length s in
  let rec go pos segments count tag =
    let stop rest = { segments; count; valid = pos; rest } in
    if pos = len then stop None
    else
      match read_header s pos ~tag with
      | Error d -> stop (Some d)
      | Ok h -> (
          if
            not
              (String.equal
                 (String.sub s h.h_stop digest_len)
                 (Digest.substring s pos (h.h_stop - pos)))
          then stop (Some Bad_digest)
          else
            match (h.h_kind, segments) with
            | Delta, 0 -> stop (Some (Bad_header "a delta starts the chain"))
            | Delta, _ when h.h_from <> count ->
                stop
                  (Some
                     (Bad_header
                        (Printf.sprintf
                           "a delta from request %d after a segment covering \
                            %d"
                           h.h_from count)))
            | _ ->
                f h;
                let next = h.h_stop + digest_len in
                go next (segments + 1) h.h_count (Some h.h_tag))
  in
  go 0 0 0 tag

let scan s = walk s ignore

let decode ~tag ?delta read chain =
  let state = ref None in
  let apply h =
    let r = { buf = chain; limit = h.h_stop; pos = h.h_payload } in
    (match (h.h_kind, !state, delta) with
    | Base, _, _ -> state := Some (read r)
    | Delta, Some st, Some delta -> delta st r
    | Delta, _, _ ->
        fail "Snapshot_codec.decode: %S chains have no delta segments" tag);
    if r.pos <> r.limit then
      fail "Snapshot_codec.decode: %S segment has %d trailing payload bytes" tag
        (r.limit - r.pos)
  in
  let sc = walk ~tag chain apply in
  match (sc.rest, !state) with
  | None, Some st -> st
  | None, None -> fail "Snapshot_codec.decode: empty %S snapshot" tag
  | Some Torn, _ ->
      fail
        "Snapshot_codec.decode: %S snapshot is truncated (segment at byte %d)"
        tag sc.valid
  | Some Bad_digest, _ ->
      fail
        "Snapshot_codec.decode: %S snapshot failed its integrity check \
         (segment at byte %d)"
        tag sc.valid
  | Some (Bad_header m), _ ->
      fail
        "Snapshot_codec.decode: blob is not a %S snapshot chain (%s at byte \
         %d)"
        tag m sc.valid
