(** Number-to-text writers for the serving path's JSON lines.

    Each writer appends exactly the bytes of its [Printf] counterpart,
    without the format interpreter and, for the common cases, without
    libc's [snprintf]:

    - {!add_int} writes an integer digit by digit ([string_of_int]'s
      bytes; negative values go through [string_of_int]);
    - {!add_g17} writes a float as [Printf "%.17g"] does. A finite [x]
      in [[1e-4, 1e16)] is rounded exactly: with [x = m·2^e] (a 53-bit
      [m]) and [p] the number of fraction digits [%g] keeps, the 17
      significant digits are [m·5^p·2^(e+p)] rounded half to even, the
      product held as two integer limbs so no bit is lost; the digits
      are then written in [%g]'s fixed notation (trailing fraction
      zeros and a bare point dropped). [+0.0] is ["0"]. Every other
      value (negative, below [1e-4] or subnormal, at least [1e16], [-0],
      nan, infinities) goes through {!format_float} ["%.17g"], the
      primitive [Printf "%.17g"] itself calls. *)

(** [format_float fmt x] is the C-library conversion behind [Printf]'s
    float formats ([caml_format_float]), for a single [%]-conversion
    [fmt] such as ["%.6f"]. *)
external format_float : string -> float -> string = "caml_format_float"

(** [add_int b n] appends [string_of_int n]. *)
val add_int : Buffer.t -> int -> unit

(** [add_g17 b x] appends [Printf.sprintf "%.17g" x]. *)
val add_g17 : Buffer.t -> float -> unit
