external format_float : string -> float -> string = "caml_format_float"

(* [n >= 0], most significant digit first. *)
let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

(* [n >= 0] in exactly [k] digits, zero-padded on the left. *)
let rec add_padded b n k =
  if k > 1 then add_padded b (n / 10) (k - 1);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

let add_int b n =
  if n >= 0 then add_digits b n else Buffer.add_string b (string_of_int n)

let powers base n =
  let a = Array.make n 1 in
  for i = 1 to n - 1 do
    a.(i) <- base * a.(i - 1)
  done;
  a

let pow5 = powers 5 22 (* 5^21 < 2^49 *)
let pow10 = powers 10 18
let p16 = pow10.(16)
let p17 = pow10.(17)
let mask30 = (1 lsl 30) - 1
let mask60 = (1 lsl 60) - 1

(* [m·5^p·2^(e+p)] rounded half to even, for [m < 2^53] and [p <= 21]:
   the product [N = m·5^p] (below 2^102) is held exactly as
   [hi·2^60 + lo] from 30-bit partial products. [max_int] when the
   result is at least 2^60, 0 when the shift is out of range: either
   way the caller's exponent guess was off and it moves on. *)
let scaled m e p =
  let q = pow5.(p) in
  let a1 = m lsr 30 and a0 = m land mask30 in
  let b1 = q lsr 30 and b0 = q land mask30 in
  let mid = (a1 * b0) + (a0 * b1) in
  let lo = (a0 * b0) + ((mid land mask30) lsl 30) in
  let hi = (a1 * b1) + (mid lsr 30) + (lo lsr 60) in
  let lo = lo land mask60 in
  let s = -(e + p) in
  if s <= 0 then
    if hi <> 0 || s < -60 || lo lsr (60 + s) <> 0 then max_int else lo lsl -s
  else if s >= 60 then 0
  else if hi lsr s <> 0 then max_int
  else
    let r = (hi lsl (60 - s)) lor (lo lsr s) in
    let rest = lo land ((1 lsl s) - 1) and half = 1 lsl (s - 1) in
    if rest > half || (rest = half && r land 1 = 1) then r + 1 else r

(* [%.17g] of a finite [x] in [1e-4, 1e16): its decimal exponent [X]
   (of the rounded value) is in [-4, 15], below the precision, so [%g]
   picks fixed notation with [16 - X] fraction digits. *)
let add_fixed b x =
  let bits = Int64.bits_of_float x in
  let m = Int64.to_int (Int64.logand bits 0xF_FFFF_FFFF_FFFFL) lor (1 lsl 52) in
  let e2 = Int64.to_int (Int64.shift_right_logical bits 52) - 1023 in
  let e = e2 - 52 in
  (* x is in [2^e2, 2^(e2+1)), so X is ⌊e2·log10 2⌋ (78913/2^18 is
     log10 2 to 6 digits) or a little more; the 17 digits [r] settle
     it: [10^16 <= r < 10^17]. *)
  let xexp = ref ((e2 * 78913) asr 18) in
  let r = ref (scaled m e (16 - !xexp)) in
  while !r >= p17 || !r < p16 do
    if !r >= p17 then incr xexp else decr xexp;
    r := scaled m e (16 - !xexp)
  done;
  let frac = ref (16 - !xexp) in
  while !frac > 0 && !r mod 10 = 0 do
    r := !r / 10;
    decr frac
  done;
  if !xexp >= 0 then
    if !frac = 0 then add_digits b !r
    else begin
      let d = pow10.(!frac) in
      add_digits b (!r / d);
      Buffer.add_char b '.';
      add_padded b (!r mod d) !frac
    end
  else begin
    Buffer.add_string b "0.";
    for _ = 2 to - !xexp do
      Buffer.add_char b '0'
    done;
    add_digits b !r
  end

let add_g17 b x =
  if x >= 1e-4 && x < 1e16 then add_fixed b x
  else if Int64.bits_of_float x = 0L then Buffer.add_char b '0'
  else Buffer.add_string b (format_float "%.17g" x)
