(* Monotonic nanosecond clock and exact order statistics. Every timing in
   the benchmark goes through [now_ns] (CLOCK_MONOTONIC via bechamel's
   stub), never the wall clock, and every percentile is read off the
   sorted raw samples, never off a bucketed histogram. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let s_of_ns ns = float_of_int ns *. 1e-9

(* Growable int sample buffer (OCaml 5.1 has no Dynarray). *)
type samples = { mutable a : int array; mutable n : int }

let samples () = { a = Array.make 256 0; n = 0 }

let add s x =
  if s.n = Array.length s.a then begin
    let b = Array.make (2 * s.n) 0 in
    Array.blit s.a 0 b 0 s.n;
    s.a <- b
  end;
  s.a.(s.n) <- x;
  s.n <- s.n + 1

let count s = s.n

let sum s =
  let t = ref 0 in
  for i = 0 to s.n - 1 do
    t := !t + s.a.(i)
  done;
  !t

let mean s = if s.n = 0 then nan else float_of_int (sum s) /. float_of_int s.n

let sorted s =
  let c = Array.sub s.a 0 s.n in
  Array.sort compare c;
  c

(* Nearest-rank percentile: the smallest sample with at least a [p]
   share of all samples at or below it. [nan] on no samples. *)
let percentile_sorted c p =
  let n = Array.length c in
  if n = 0 then nan
  else
    let k = int_of_float (Float.ceil (p *. float_of_int n)) in
    float_of_int c.(max 0 (min (n - 1) (k - 1)))

let percentile s p = percentile_sorted (sorted s) p
