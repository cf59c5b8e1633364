open Omflp_prelude

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------- Bitset ---------- *)

let test_bitset_empty () =
  let b = Bitset.create 10 in
  check_bool "empty" true (Bitset.is_empty b);
  check_int "cardinal" 0 (Bitset.cardinal b);
  check_int "universe" 10 (Bitset.universe b)

let test_bitset_add_mem () =
  let b = Bitset.add (Bitset.add (Bitset.create 10) 3) 7 in
  check_bool "mem 3" true (Bitset.mem b 3);
  check_bool "mem 7" true (Bitset.mem b 7);
  check_bool "mem 4" false (Bitset.mem b 4);
  check_int "cardinal" 2 (Bitset.cardinal b)

let test_bitset_remove () =
  let b = Bitset.of_list 10 [ 1; 2; 3 ] in
  let b = Bitset.remove b 2 in
  Alcotest.(check (list int)) "elements" [ 1; 3 ] (Bitset.elements b)

let test_bitset_bounds () =
  let b = Bitset.create 5 in
  Alcotest.check_raises "negative" (Invalid_argument "Bitset: index -1 outside universe 5")
    (fun () -> ignore (Bitset.mem b (-1)));
  Alcotest.check_raises "too large" (Invalid_argument "Bitset: index 5 outside universe 5")
    (fun () -> ignore (Bitset.add b 5))

let test_bitset_universe_mismatch () =
  let a = Bitset.create 5 and b = Bitset.create 6 in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Bitset: universes differ (5 vs 6)") (fun () ->
      ignore (Bitset.union a b))

let test_bitset_large_universe () =
  (* Crosses the 62-bit word boundary. *)
  let b = Bitset.of_list 200 [ 0; 61; 62; 63; 123; 124; 199 ] in
  check_int "cardinal" 7 (Bitset.cardinal b);
  List.iter
    (fun i -> check_bool (Printf.sprintf "mem %d" i) true (Bitset.mem b i))
    [ 0; 61; 62; 63; 123; 124; 199 ];
  check_bool "not mem 100" false (Bitset.mem b 100);
  let c = Bitset.complement b in
  check_int "complement cardinal" 193 (Bitset.cardinal c);
  check_bool "disjoint" true (Bitset.is_empty (Bitset.inter b c));
  check_bool "full union" true
    (Bitset.equal (Bitset.union b c) (Bitset.full 200))

let test_bitset_full () =
  let f = Bitset.full 65 in
  check_int "cardinal" 65 (Bitset.cardinal f);
  check_bool "complement empty" true (Bitset.is_empty (Bitset.complement f))

let test_bitset_to_int () =
  let b = Bitset.of_list 10 [ 0; 3; 9 ] in
  check_int "to_int" (1 lor 8 lor 512) (Bitset.to_int b);
  check_bool "round trip" true (Bitset.equal b (Bitset.of_int 10 (Bitset.to_int b)));
  Alcotest.check_raises "too large"
    (Invalid_argument "Bitset.to_int: universe exceeds 62") (fun () ->
      ignore (Bitset.to_int (Bitset.create 63)))

let test_bitset_choose () =
  check_int "choose" 4 (Bitset.choose (Bitset.of_list 9 [ 7; 4; 8 ]));
  Alcotest.check_raises "empty" Not_found (fun () ->
      ignore (Bitset.choose (Bitset.create 4)))

let bitset_gen =
  QCheck.make
    ~print:(fun b -> Format.asprintf "%a" Bitset.pp b)
    QCheck.Gen.(
      let* universe = int_range 1 150 in
      let* elems = list_size (int_bound 20) (int_bound (universe - 1)) in
      return (Bitset.of_list universe elems))

let pair_gen =
  QCheck.make
    ~print:(fun (a, b) -> Format.asprintf "%a / %a" Bitset.pp a Bitset.pp b)
    QCheck.Gen.(
      let* universe = int_range 1 150 in
      let* e1 = list_size (int_bound 20) (int_bound (universe - 1)) in
      let* e2 = list_size (int_bound 20) (int_bound (universe - 1)) in
      return (Bitset.of_list universe e1, Bitset.of_list universe e2))

let prop_union_contains =
  QCheck.Test.make ~name:"union contains both operands" ~count:200 pair_gen
    (fun (a, b) ->
      let u = Bitset.union a b in
      Bitset.subset a u && Bitset.subset b u)

let prop_inter_subset =
  QCheck.Test.make ~name:"inter is a subset of both" ~count:200 pair_gen
    (fun (a, b) ->
      let i = Bitset.inter a b in
      Bitset.subset i a && Bitset.subset i b)

let prop_diff_disjoint =
  QCheck.Test.make ~name:"diff disjoint from subtrahend" ~count:200 pair_gen
    (fun (a, b) -> Bitset.is_empty (Bitset.inter (Bitset.diff a b) b))

let prop_cardinal_inclusion_exclusion =
  QCheck.Test.make ~name:"|a|+|b| = |a∪b|+|a∩b|" ~count:200 pair_gen
    (fun (a, b) ->
      Bitset.cardinal a + Bitset.cardinal b
      = Bitset.cardinal (Bitset.union a b) + Bitset.cardinal (Bitset.inter a b))

let prop_complement_involution =
  QCheck.Test.make ~name:"complement is an involution" ~count:200 bitset_gen
    (fun b -> Bitset.equal b (Bitset.complement (Bitset.complement b)))

let prop_elements_sorted =
  QCheck.Test.make ~name:"elements sorted and unique" ~count:200 bitset_gen
    (fun b ->
      let es = Bitset.elements b in
      es = List.sort_uniq compare es)

(* The word-packed bitset against a [Set.Make (Int)] reference: after
   every operation of a random sequence the two must agree on [mem]
   across the whole universe, [cardinal], [elements], and the ascending
   [iter] order, and the [to_words]/[of_words] snapshot form must round
   trip. Universes up to 150 span three 63-bit words, so the sequences
   cross word boundaries. *)
module Iset = Set.Make (Int)

type bitset_op =
  | Op_add of int
  | Op_remove of int
  | Op_union of int list
  | Op_inter of int list
  | Op_diff of int list

let pp_bitset_op op =
  let pp_list l = String.concat ";" (List.map string_of_int l) in
  match op with
  | Op_add i -> Printf.sprintf "add %d" i
  | Op_remove i -> Printf.sprintf "remove %d" i
  | Op_union l -> Printf.sprintf "union [%s]" (pp_list l)
  | Op_inter l -> Printf.sprintf "inter [%s]" (pp_list l)
  | Op_diff l -> Printf.sprintf "diff [%s]" (pp_list l)

let bitset_ops_gen =
  QCheck.make
    ~print:(fun (u, ops) ->
      Printf.sprintf "universe=%d: %s" u
        (String.concat ", " (List.map pp_bitset_op ops)))
    QCheck.Gen.(
      let* universe = int_range 1 150 in
      let elem = int_bound (universe - 1) in
      let elems = list_size (int_bound 12) elem in
      let op =
        oneof
          [
            map (fun i -> Op_add i) elem;
            map (fun i -> Op_remove i) elem;
            map (fun l -> Op_union l) elems;
            map (fun l -> Op_inter l) elems;
            map (fun l -> Op_diff l) elems;
          ]
      in
      let* ops = list_size (int_bound 30) op in
      return (universe, ops))

let prop_bitset_matches_reference =
  QCheck.Test.make ~name:"random op sequences match Set.Make(Int)"
    ~count:300 bitset_ops_gen (fun (universe, ops) ->
      let apply_b b = function
        | Op_add i -> Bitset.add b i
        | Op_remove i -> Bitset.remove b i
        | Op_union l -> Bitset.union b (Bitset.of_list universe l)
        | Op_inter l -> Bitset.inter b (Bitset.of_list universe l)
        | Op_diff l -> Bitset.diff b (Bitset.of_list universe l)
      in
      let apply_r r = function
        | Op_add i -> Iset.add i r
        | Op_remove i -> Iset.remove i r
        | Op_union l -> Iset.union r (Iset.of_list l)
        | Op_inter l -> Iset.inter r (Iset.of_list l)
        | Op_diff l -> Iset.diff r (Iset.of_list l)
      in
      let agree b r =
        Bitset.cardinal b = Iset.cardinal r
        && Bitset.elements b = Iset.elements r
        && (let iterated = ref [] in
            Bitset.iter (fun i -> iterated := i :: !iterated) b;
            List.rev !iterated = Iset.elements r)
        &&
        (let ok = ref true in
         for i = 0 to universe - 1 do
           if Bitset.mem b i <> Iset.mem i r then ok := false
         done;
         !ok)
        && Bitset.equal b (Bitset.of_words universe (Bitset.to_words b))
      in
      let b = ref (Bitset.create universe) and r = ref Iset.empty in
      agree !b !r
      && List.for_all
           (fun op ->
             b := apply_b !b op;
             r := apply_r !r op;
             agree !b !r)
           ops)

(* ---------- Splitmix ---------- *)

let test_splitmix_deterministic () =
  let a = Splitmix.of_int 123 and b = Splitmix.of_int 123 in
  for _ = 1 to 50 do
    Alcotest.(check int64) "same stream" (Splitmix.next_int64 a)
      (Splitmix.next_int64 b)
  done

let test_splitmix_copy () =
  let a = Splitmix.of_int 7 in
  ignore (Splitmix.next_int64 a);
  let b = Splitmix.copy a in
  Alcotest.(check int64) "copy continues" (Splitmix.next_int64 a)
    (Splitmix.next_int64 b)

let test_splitmix_split_independent () =
  let a = Splitmix.of_int 9 in
  let b = Splitmix.split a in
  check_bool "different streams"
    (Splitmix.next_int64 a <> Splitmix.next_int64 b)
    true

let test_splitmix_int_bounds () =
  let rng = Splitmix.of_int 5 in
  for _ = 1 to 2000 do
    let v = Splitmix.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.fail "out of bounds"
  done;
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Splitmix.int: bound must be positive") (fun () ->
      ignore (Splitmix.int rng 0))

let test_splitmix_float_range () =
  let rng = Splitmix.of_int 5 in
  for _ = 1 to 2000 do
    let v = Splitmix.float rng in
    if v < 0.0 || v >= 1.0 then Alcotest.fail "out of range"
  done

let test_splitmix_int_covers () =
  (* All residues of a small bound appear. *)
  let rng = Splitmix.of_int 11 in
  let seen = Array.make 5 false in
  for _ = 1 to 500 do
    seen.(Splitmix.int rng 5) <- true
  done;
  check_bool "all residues" true (Array.for_all Fun.id seen)

(* ---------- Sampler ---------- *)

let test_sample_without_replacement () =
  let rng = Splitmix.of_int 3 in
  for _ = 1 to 100 do
    let picks = Sampler.sample_without_replacement rng ~n:30 ~k:10 in
    let sorted = List.sort_uniq compare (Array.to_list picks) in
    check_int "distinct" 10 (List.length sorted);
    List.iter
      (fun v -> if v < 0 || v >= 30 then Alcotest.fail "out of range")
      sorted
  done

let test_sample_without_replacement_all () =
  let rng = Splitmix.of_int 3 in
  let picks = Sampler.sample_without_replacement rng ~n:8 ~k:8 in
  Alcotest.(check (list int)) "permutation" [ 0; 1; 2; 3; 4; 5; 6; 7 ]
    (List.sort compare (Array.to_list picks))

let test_hypergeometric_bounds () =
  let rng = Splitmix.of_int 4 in
  for _ = 1 to 500 do
    let h = Sampler.hypergeometric rng ~population:50 ~successes:20 ~draws:10 in
    if h < 0 || h > 10 then Alcotest.fail "outside [0, draws]"
  done

let test_hypergeometric_exhaustive () =
  let rng = Splitmix.of_int 4 in
  check_int "all draws"
    20
    (Sampler.hypergeometric rng ~population:20 ~successes:20 ~draws:20)

let test_hypergeometric_mean () =
  (* E[Y] = draws * successes / population; matches Equation 3's setup. *)
  let rng = Splitmix.of_int 4 in
  let reps = 3000 in
  let total = ref 0 in
  for _ = 1 to reps do
    total :=
      !total + Sampler.hypergeometric rng ~population:100 ~successes:30 ~draws:20
  done;
  let mean = float_of_int !total /. float_of_int reps in
  check_bool "mean close to 6" true (Float.abs (mean -. 6.0) < 0.3)

let test_zipf_range () =
  let rng = Splitmix.of_int 5 in
  let table = Sampler.zipf_table ~n:20 ~s:1.0 in
  for _ = 1 to 1000 do
    let v = Sampler.zipf_draw rng table in
    if v < 0 || v >= 20 then Alcotest.fail "zipf out of range"
  done

let test_zipf_skew () =
  (* Rank 0 must dominate under strong skew. *)
  let rng = Splitmix.of_int 6 in
  let table = Sampler.zipf_table ~n:10 ~s:2.0 in
  let count0 = ref 0 in
  let reps = 2000 in
  for _ = 1 to reps do
    if Sampler.zipf_draw rng table = 0 then incr count0
  done;
  check_bool "rank 0 majority" true (!count0 > reps / 3)

let test_categorical () =
  let rng = Splitmix.of_int 7 in
  let counts = Array.make 3 0 in
  for _ = 1 to 3000 do
    let i = Sampler.categorical rng [| 1.0; 0.0; 3.0 |] in
    counts.(i) <- counts.(i) + 1
  done;
  check_int "never draws zero-weight" 0 counts.(1);
  check_bool "weighting respected" true (counts.(2) > counts.(0))

let test_random_subset_of_size () =
  let rng = Splitmix.of_int 8 in
  for k = 0 to 10 do
    let s = Sampler.random_subset_of_size rng ~universe:10 ~k in
    check_int (Printf.sprintf "size %d" k) k (Bitset.cardinal s)
  done

let test_gaussian_moments () =
  let rng = Splitmix.of_int 9 in
  let xs = Array.init 5000 (fun _ -> Sampler.gaussian rng ~mean:2.0 ~stddev:0.5) in
  let m = Stats.mean xs in
  check_bool "mean" true (Float.abs (m -. 2.0) < 0.05);
  check_bool "stddev" true (Float.abs (Stats.stddev xs -. 0.5) < 0.05)

(* ---------- Pqueue ---------- *)

let test_pqueue_sorts () =
  let rng = Splitmix.of_int 10 in
  let h = Pqueue.create () in
  let values = Array.init 500 (fun _ -> Splitmix.float rng) in
  Array.iter (fun v -> Pqueue.push h v v) values;
  Alcotest.(check int) "size" 500 (Pqueue.size h);
  let prev = ref neg_infinity in
  while not (Pqueue.is_empty h) do
    let p, _ = Pqueue.pop_min h in
    if p < !prev then Alcotest.fail "not sorted";
    prev := p
  done

let test_pqueue_empty () =
  let h = Pqueue.create () in
  Alcotest.check_raises "pop empty" Not_found (fun () -> ignore (Pqueue.pop_min h));
  Alcotest.check_raises "peek empty" Not_found (fun () ->
      ignore (Pqueue.peek_min h))

let test_pqueue_peek () =
  let h = Pqueue.create () in
  Pqueue.push h 3.0 "c";
  Pqueue.push h 1.0 "a";
  Pqueue.push h 2.0 "b";
  Alcotest.(check (pair (float 0.0) string)) "peek" (1.0, "a") (Pqueue.peek_min h);
  Alcotest.(check int) "size unchanged" 3 (Pqueue.size h)

(* ---------- Numerics ---------- *)

let test_harmonic () =
  check_float "H_1" 1.0 (Numerics.harmonic 1);
  check_float "H_4" (1.0 +. 0.5 +. (1.0 /. 3.0) +. 0.25) (Numerics.harmonic 4);
  check_float "H_0" 0.0 (Numerics.harmonic 0);
  (* Asymptotic branch close to ln n + gamma. *)
  let h = Numerics.harmonic 2_000_000 in
  check_bool "asymptotic" true (Float.abs (h -. (log 2e6 +. 0.5772156649)) < 1e-6)

let test_isqrt () =
  List.iter
    (fun (n, r) -> check_int (Printf.sprintf "isqrt %d" n) r (Numerics.isqrt n))
    [ (0, 0); (1, 1); (3, 1); (4, 2); (15, 3); (16, 4); (1024, 32); (1023, 31) ]

let test_floor_pow2 () =
  check_float "5 -> 4" 4.0 (Numerics.floor_pow2 5.0);
  check_float "8 -> 8" 8.0 (Numerics.floor_pow2 8.0);
  check_float "0.7 -> 0.5" 0.5 (Numerics.floor_pow2 0.7);
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Numerics.floor_pow2: non-positive input") (fun () ->
      ignore (Numerics.floor_pow2 0.0))

let test_ceil_div () =
  check_int "7/2" 4 (Numerics.ceil_div 7 2);
  check_int "8/2" 4 (Numerics.ceil_div 8 2);
  check_int "0/3" 0 (Numerics.ceil_div 0 3)

let test_pos () =
  check_float "positive" 3.0 (Numerics.pos 3.0);
  check_float "negative" 0.0 (Numerics.pos (-2.0))

let test_kahan () =
  (* Summing many tiny values against one big one. *)
  let xs = Array.make 10_001 1e-10 in
  xs.(0) <- 1.0;
  check_bool "kahan accurate" true
    (Float.abs (Numerics.kahan_sum xs -. (1.0 +. 1e-6)) < 1e-12)

let test_log_over_loglog () =
  check_float "small n" 1.0 (Numerics.log_over_loglog 2);
  let v = Numerics.log_over_loglog 1000 in
  check_bool "n=1000" true (Float.abs (v -. (log 1000.0 /. log (log 1000.0))) < 1e-9)

(* ---------- Stats ---------- *)

let test_stats_summary () =
  let s = Stats.summarize [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_float "mean" 3.0 s.Stats.mean;
  check_float "median" 3.0 s.Stats.median;
  check_float "min" 1.0 s.Stats.min;
  check_float "max" 5.0 s.Stats.max;
  check_int "n" 5 s.Stats.n

let test_stats_percentile () =
  let xs = [| 10.0; 20.0; 30.0; 40.0 |] in
  check_float "p0" 10.0 (Stats.percentile xs 0.0);
  check_float "p100" 40.0 (Stats.percentile xs 100.0);
  check_float "p50" 25.0 (Stats.percentile xs 50.0)

let test_stats_stddev () =
  check_float "constant" 0.0 (Stats.stddev [| 2.0; 2.0; 2.0 |]);
  check_float "simple" (sqrt 2.0) (Stats.stddev [| 1.0; 3.0 |])

let test_geometric_mean () =
  check_float "gm" 2.0 (Stats.geometric_mean [| 1.0; 2.0; 4.0 |]);
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Stats.geometric_mean: non-positive entry") (fun () ->
      ignore (Stats.geometric_mean [| 1.0; 0.0 |]))

let test_stats_empty () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats.mean: empty")
    (fun () -> ignore (Stats.mean [||]))

(* ---------- Texttable ---------- *)

let contains haystack needle =
  let n = String.length needle in
  let rec go i =
    if i + n > String.length haystack then false
    else if String.sub haystack i n = needle then true
    else go (i + 1)
  in
  go 0

let test_table_render () =
  let t = Texttable.create [ "name"; "value" ] in
  Texttable.add_row t [ "alpha"; "1.5" ];
  Texttable.add_row t [ "b"; "22" ];
  let out = Texttable.render t in
  check_bool "has header" true (contains out "name");
  check_bool "mentions alpha" true (contains out "alpha");
  check_bool "numeric column right-aligned" true (contains out " 22")

let test_table_arity () =
  let t = Texttable.create [ "a"; "b" ] in
  Alcotest.check_raises "arity"
    (Invalid_argument "Texttable.add_row: expected 2 cells, got 1") (fun () ->
      Texttable.add_row t [ "only" ])

let test_table_rows_accessor () =
  let t = Texttable.create [ "a"; "b" ] in
  Texttable.add_row t [ "1"; "2" ];
  Texttable.add_rule t;
  Texttable.add_row t [ "3"; "4" ];
  Alcotest.(check (list string)) "headers" [ "a"; "b" ] (Texttable.headers t);
  Alcotest.(check (list (list string)))
    "rows skip rules"
    [ [ "1"; "2" ]; [ "3"; "4" ] ]
    (Texttable.rows t)

(* ---------- Snapshot_codec ---------- *)

(* The codec's writer before it was chunked — a [Buffer.t] written field
   by field — kept as the reference for the bytes every writer must
   produce. *)
module Ref_codec = struct
  let w_u8 b n = Buffer.add_char b (Char.chr (n land 0xff))
  let w_i64 b v = Buffer.add_int64_le b v
  let w_int b n = w_i64 b (Int64.of_int n)
  let w_float b v = w_i64 b (Int64.bits_of_float v)

  let w_string b s =
    w_int b (String.length s);
    Buffer.add_string b s

  let w_array w b xs =
    w_int b (Array.length xs);
    Array.iter (w b) xs

  (* A base segment: header, payload length and its complement, MD5. *)
  let encode ~tag ~count emit =
    let p = Buffer.create 256 in
    emit p;
    let b = Buffer.create 256 in
    Buffer.add_string b "omflp.snap3\n";
    Buffer.add_string b tag;
    Buffer.add_char b '\n';
    w_u8 b 0;
    w_int b 0;
    w_int b count;
    let len = Int64.of_int (Buffer.length p) in
    w_i64 b len;
    w_i64 b (Int64.lognot len);
    Buffer.add_buffer b p;
    let body = Buffer.contents b in
    body ^ Digest.string body
end

type codec_op =
  | C_u8 of int
  | C_bool of bool
  | C_int of int
  | C_i64 of int64
  | C_float of float
  | C_string of string
  | C_floats of float array
  | C_float_sub of float array * int * int
  | C_ints of int array
  | C_list of int list
  | C_opt of float option

let codec_tag = "omflp.snap.codec-test.v3"

let write_op w = function
  | C_u8 n -> Snapshot_codec.w_u8 w n
  | C_bool v -> Snapshot_codec.w_bool w v
  | C_int n -> Snapshot_codec.w_int w n
  | C_i64 v -> Snapshot_codec.w_i64 w v
  | C_float v -> Snapshot_codec.w_float w v
  | C_string s -> Snapshot_codec.w_string w s
  | C_floats a -> Snapshot_codec.w_float_array w a
  | C_float_sub (a, off, len) -> Snapshot_codec.w_float_sub w a off len
  | C_ints a -> Snapshot_codec.w_int_array w a
  | C_list l -> Snapshot_codec.w_list Snapshot_codec.w_int w l
  | C_opt o -> Snapshot_codec.w_opt Snapshot_codec.w_float w o

let ref_write_op b = function
  | C_u8 n -> Ref_codec.w_u8 b n
  | C_bool v -> Ref_codec.w_u8 b (if v then 1 else 0)
  | C_int n -> Ref_codec.w_int b n
  | C_i64 v -> Ref_codec.w_i64 b v
  | C_float v -> Ref_codec.w_float b v
  | C_string s -> Ref_codec.w_string b s
  | C_floats a -> Ref_codec.w_array Ref_codec.w_float b a
  | C_float_sub (a, off, len) ->
      Ref_codec.w_array Ref_codec.w_float b (Array.sub a off len)
  | C_ints a -> Ref_codec.w_array Ref_codec.w_int b a
  | C_list l ->
      Ref_codec.w_int b (List.length l);
      List.iter (Ref_codec.w_int b) l
  | C_opt None -> Ref_codec.w_u8 b 0
  | C_opt (Some v) ->
      Ref_codec.w_u8 b 1;
      Ref_codec.w_float b v

(* Floats compare by bits: NaN payloads and -0.0 must survive. *)
let same_float x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let same_floats a b =
  Array.length a = Array.length b && Array.for_all2 same_float a b

let read_op r = function
  | C_u8 n -> Snapshot_codec.r_u8 r = n land 0xff
  | C_bool v -> Snapshot_codec.r_bool r = v
  | C_int n -> Snapshot_codec.r_int r = n
  | C_i64 v -> Int64.equal (Snapshot_codec.r_i64 r) v
  | C_float v -> same_float (Snapshot_codec.r_float r) v
  | C_string s -> String.equal (Snapshot_codec.r_string r) s
  | C_floats a -> same_floats (Snapshot_codec.r_float_array r) a
  | C_float_sub (a, off, len) ->
      same_floats (Snapshot_codec.r_float_array r) (Array.sub a off len)
  | C_ints a -> Snapshot_codec.r_int_array r = a
  | C_list l -> Snapshot_codec.r_list Snapshot_codec.r_int r = l
  | C_opt o -> (
      match (Snapshot_codec.r_opt Snapshot_codec.r_float r, o) with
      | None, None -> true
      | Some x, Some y -> same_float x y
      | _ -> false)

let pp_codec_op = function
  | C_u8 n -> Printf.sprintf "u8 %d" n
  | C_bool v -> Printf.sprintf "bool %b" v
  | C_int n -> Printf.sprintf "int %d" n
  | C_i64 v -> Printf.sprintf "i64 %Ld" v
  | C_float v -> Printf.sprintf "float %h" v
  | C_string s -> Printf.sprintf "string[%d]" (String.length s)
  | C_floats a -> Printf.sprintf "floats[%d]" (Array.length a)
  | C_float_sub (a, off, len) ->
      Printf.sprintf "float_sub[%d] %d %d" (Array.length a) off len
  | C_ints a -> Printf.sprintf "ints[%d]" (Array.length a)
  | C_list l -> Printf.sprintf "list[%d]" (List.length l)
  | C_opt None -> "opt none"
  | C_opt (Some v) -> Printf.sprintf "opt %h" v

(* Large values are cheap patterns of a drawn seed. Float bits span all
   64, so NaN payloads, infinities and negative zero all occur; strings
   and arrays reach past one 64 KiB chunk, so a sequence of a dozen
   large ops spans several. *)
let codec_ops_gen =
  let open QCheck.Gen in
  let big = int_bound 150_000 and long = int_bound 20_000 in
  let any_float = map Int64.float_of_bits ui64 in
  let floats n seed =
    Array.init n (fun i ->
        Int64.float_of_bits
          (Int64.mul (Int64.of_int (seed + i)) 0x9E3779B97F4A7C15L))
  in
  let text n c = String.init n (fun i -> Char.chr ((c + (i * 31)) land 0xff)) in
  let op =
    frequency
      [
        (3, map (fun n -> C_u8 n) (int_bound 255));
        (2, map (fun v -> C_bool v) bool);
        (3, map (fun n -> C_int n) int);
        (2, map (fun v -> C_i64 v) ui64);
        (3, map (fun v -> C_float v) any_float);
        (2, map2 (fun n c -> C_string (text n c)) big (int_bound 255));
        (1, map (fun s -> C_string s) (string_size (int_bound 40)));
        (2, map2 (fun n seed -> C_floats (floats n seed)) long int);
        ( 2,
          let* n = long and* seed = int in
          let* off = int_bound n in
          let* len = int_bound (n - off) in
          return (C_float_sub (floats n seed, off, len)) );
        ( 2,
          map2
            (fun n seed -> C_ints (Array.init n (fun i -> (seed * i) lxor i)))
            long int );
        (1, map (fun l -> C_list l) (list_size (int_bound 50) int));
        (1, map (fun o -> C_opt o) (opt any_float));
      ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_codec_op ops))
    (list_size (int_range 1 40) op)

let prop_codec_matches_reference =
  QCheck.Test.make ~name:"chunked writer = Buffer reference, and decodes"
    ~count:60 codec_ops_gen (fun ops ->
      let blob =
        Snapshot_codec.base ~tag:codec_tag ~count:7 (fun w ->
            List.iter (write_op w) ops)
      in
      let expected =
        Ref_codec.encode ~tag:codec_tag ~count:7 (fun b ->
            List.iter (ref_write_op b) ops)
      in
      String.equal blob expected
      && Snapshot_codec.decode ~tag:codec_tag
           (fun r -> List.fold_left (fun ok op -> read_op r op && ok) true ops)
           blob)

let test_codec_float_sub_bounds () =
  let a = Array.init 6 float_of_int in
  List.iter
    (fun (off, len) ->
      match
        Snapshot_codec.base ~tag:codec_tag ~count:0 (fun w ->
            Snapshot_codec.w_float_sub w a off len)
      with
      | _ -> Alcotest.failf "w_float_sub a %d %d accepted a bad slice" off len
      | exception Invalid_argument _ -> ())
    [ (-1, 2); (0, -1); (3, 4); (7, 0); (0, 7); (max_int, 1) ];
  (* The empty slice at either end is valid. *)
  List.iter
    (fun off ->
      ignore
        (Snapshot_codec.base ~tag:codec_tag ~count:0 (fun w ->
             Snapshot_codec.w_float_sub w a off 0)))
    [ 0; 6 ]

(* Fixed-width fields are stored into the chunks unboxed and the chunks
   live on the major heap, so writing 200,000 values allocates a few
   hundred minor words in all (the first chunk, the writer, the digest) —
   not the 2+ words per value a boxed store costs. *)
let test_codec_encode_allocation () =
  let a = Array.init 100_000 float_of_int in
  let half = Array.sub a 0 50_000 in
  let emit w =
    Snapshot_codec.w_float_array w half;
    Snapshot_codec.w_float_sub w a 50_000 50_000;
    for i = 0 to 99_999 do
      Snapshot_codec.w_int w i
    done
  in
  ignore (Snapshot_codec.base ~tag:codec_tag ~count:0 emit);
  let before = Gc.minor_words () in
  let blob = Snapshot_codec.base ~tag:codec_tag ~count:0 emit in
  let words = Gc.minor_words () -. before in
  check_int "blob length"
    (String.length ("omflp.snap3\n" ^ codec_tag ^ "\n")
    + 33 + (8 * 200_002) + 16)
    (String.length blob);
  if words >= 1000.0 then
    Alcotest.failf "encode of 200,000 values allocated %.0f minor words" words

(* A PD-OMFLP snapshot far past one 64 KiB chunk restores into the state
   that continues exactly like the uninterrupted run, and re-encodes to
   the same bytes. *)
let test_codec_pd_snapshot_past_64k () =
  let open Omflp_instance in
  let module Pd = Omflp_core.Pd_omflp in
  let inst =
    Generators.clustered (Splitmix.of_int 5) ~clusters:4 ~per_cluster:4
      ~n_requests:1000 ~n_commodities:8 ~side:100.0 ~spread:2.0
      ~cost:(fun ~n_commodities ~n_sites ->
        Omflp_commodity.Cost_function.power_law ~n_commodities ~n_sites ~x:1.0)
  in
  let env = Instance.env inst and reqs = inst.Instance.requests in
  let digest t = Omflp_check.Oracle.run_digest (Pd.run_so_far t) in
  let straight = Pd.create ~seed:3 env in
  Array.iter (fun r -> ignore (Pd.step straight r)) reqs;
  let cut = 700 in
  let t = Pd.create ~seed:3 env in
  for i = 0 to cut - 1 do
    ignore (Pd.step t reqs.(i))
  done;
  let blob = Pd.snapshot t in
  check_bool
    (Printf.sprintf "snapshot (%d bytes) spans chunks" (String.length blob))
    true
    (String.length blob > 2 * 65536);
  let t' = Pd.restore env blob in
  check_bool "restored state re-encodes to the same bytes" true
    (String.equal (Pd.snapshot t') blob);
  for i = cut to Array.length reqs - 1 do
    ignore (Pd.step t' reqs.(i))
  done;
  check_bool "restored run = uninterrupted run" true
    (String.equal (digest t') (digest straight))

(* ---------- Numfmt ---------- *)

(* Floats from every region [%.17g] treats differently: random bit
   patterns (mostly huge or tiny), uniform exponents over and around the
   fixed-notation range [1e-4, 1e16), k/10^j and k/2^j, powers of ten
   1-3 ulps either way, subnormals, and the signed zeros, nans and
   infinities. *)
let gen_g17_float st =
  let int n = Random.State.int st n in
  let rec ulps step x k = if k = 0 then x else ulps step (step x) (k - 1) in
  match int 7 with
  | 0 -> Int64.float_of_bits (Random.State.bits64 st)
  | 1 -> Float.ldexp (Random.State.float st 1.0) (int 80 - 20)
  | 2 -> float (Random.State.bits st) /. (10.0 ** float (int 24))
  | 3 -> float (Random.State.bits st) /. Float.ldexp 1.0 (int 70)
  | 4 ->
      ulps
        (if int 2 = 0 then Float.succ else Float.pred)
        (float_of_string (Printf.sprintf "1e%d" (int 50 - 25)))
        (int 4)
  | 5 -> Int64.float_of_bits (Random.State.int64 st 0x10_0000_0000_0000L)
  | _ ->
      [| 0.0; -0.0; Float.nan; Float.neg Float.nan; Float.infinity;
         Float.neg_infinity; 1e-4; 1e16; Float.min_float; Float.max_float |].(int 10)

let prop_g17_matches_printf =
  QCheck.Test.make ~name:"add_g17 = Printf %.17g" ~count:20000
    (QCheck.make ~print:(fun x -> Printf.sprintf "%h" x) gen_g17_float)
    (fun x ->
      let b = Buffer.create 32 in
      Numfmt.add_g17 b x;
      String.equal (Buffer.contents b) (Printf.sprintf "%.17g" x))

let test_numfmt_add_int () =
  let b = Buffer.create 32 in
  List.iter
    (fun n ->
      Buffer.clear b;
      Numfmt.add_int b n;
      Alcotest.(check string) (string_of_int n) (string_of_int n) (Buffer.contents b))
    [ 0; 1; 9; 10; 99; 100; 123456789; max_int; -1; -10; min_int ]

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_union_contains;
      prop_inter_subset;
      prop_diff_disjoint;
      prop_cardinal_inclusion_exclusion;
      prop_complement_involution;
      prop_elements_sorted;
      prop_bitset_matches_reference;
    ]

let () =
  Alcotest.run "prelude"
    [
      ( "bitset",
        [
          Alcotest.test_case "empty" `Quick test_bitset_empty;
          Alcotest.test_case "add/mem" `Quick test_bitset_add_mem;
          Alcotest.test_case "remove" `Quick test_bitset_remove;
          Alcotest.test_case "bounds" `Quick test_bitset_bounds;
          Alcotest.test_case "universe mismatch" `Quick test_bitset_universe_mismatch;
          Alcotest.test_case "large universe" `Quick test_bitset_large_universe;
          Alcotest.test_case "full" `Quick test_bitset_full;
          Alcotest.test_case "to_int" `Quick test_bitset_to_int;
          Alcotest.test_case "choose" `Quick test_bitset_choose;
        ] );
      ("bitset-props", qcheck_tests);
      ( "splitmix",
        [
          Alcotest.test_case "deterministic" `Quick test_splitmix_deterministic;
          Alcotest.test_case "copy" `Quick test_splitmix_copy;
          Alcotest.test_case "split" `Quick test_splitmix_split_independent;
          Alcotest.test_case "int bounds" `Quick test_splitmix_int_bounds;
          Alcotest.test_case "float range" `Quick test_splitmix_float_range;
          Alcotest.test_case "int covers residues" `Quick test_splitmix_int_covers;
        ] );
      ( "sampler",
        [
          Alcotest.test_case "without replacement" `Quick test_sample_without_replacement;
          Alcotest.test_case "full permutation" `Quick test_sample_without_replacement_all;
          Alcotest.test_case "hypergeometric bounds" `Quick test_hypergeometric_bounds;
          Alcotest.test_case "hypergeometric exhaustive" `Quick test_hypergeometric_exhaustive;
          Alcotest.test_case "hypergeometric mean" `Quick test_hypergeometric_mean;
          Alcotest.test_case "zipf range" `Quick test_zipf_range;
          Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
          Alcotest.test_case "categorical" `Quick test_categorical;
          Alcotest.test_case "subset of size" `Quick test_random_subset_of_size;
          Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "sorts" `Quick test_pqueue_sorts;
          Alcotest.test_case "empty" `Quick test_pqueue_empty;
          Alcotest.test_case "peek" `Quick test_pqueue_peek;
        ] );
      ( "numerics",
        [
          Alcotest.test_case "harmonic" `Quick test_harmonic;
          Alcotest.test_case "isqrt" `Quick test_isqrt;
          Alcotest.test_case "floor_pow2" `Quick test_floor_pow2;
          Alcotest.test_case "ceil_div" `Quick test_ceil_div;
          Alcotest.test_case "pos" `Quick test_pos;
          Alcotest.test_case "kahan" `Quick test_kahan;
          Alcotest.test_case "log/loglog" `Quick test_log_over_loglog;
          QCheck_alcotest.to_alcotest prop_g17_matches_printf;
          Alcotest.test_case "add_int = string_of_int" `Quick
            test_numfmt_add_int;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
          Alcotest.test_case "empty" `Quick test_stats_empty;
        ] );
      ( "snap-codec",
        [
          QCheck_alcotest.to_alcotest prop_codec_matches_reference;
          Alcotest.test_case "w_float_sub bounds" `Quick
            test_codec_float_sub_bounds;
          Alcotest.test_case "encode allocation pinned" `Quick
            test_codec_encode_allocation;
          Alcotest.test_case "PD snapshot past 64 KiB restores" `Quick
            test_codec_pd_snapshot_past_64k;
        ] );
      ( "texttable",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "arity" `Quick test_table_arity;
          Alcotest.test_case "rows accessor" `Quick test_table_rows_accessor;
        ] );
    ]
