(* Sharded flat-array registry. Registration (name -> index) is global
   and mutex-guarded; the handle handed to callers is the bare index.
   Instrument *state* lives in per-domain shards reached through
   [Domain.DLS], so hot-path recording from pool workers is lock-free
   and race-free: each domain writes only its own arrays. Readers
   ([value] / [snapshot] / [reset]) merge every shard ever created, in
   domain-id order so float accumulation is deterministic; integer
   counters merge exactly regardless of which domain did the work, which
   is what keeps the E7b work-counter tables byte-identical across
   [--jobs] values. Shards of terminated domains are kept (their
   contributions happened), so a merge never loses work. *)

let on = ref false

let set_enabled b = on := b

let enabled () = !on

(* ---------- registration (global, mutex-guarded) ---------- *)

let reg_mutex = Mutex.create ()

let c_index : (string, int) Hashtbl.t = Hashtbl.create 64

let c_names = ref (Array.make 16 "")

let c_count = ref 0

let t_index : (string, int) Hashtbl.t = Hashtbl.create 16

let t_names = ref (Array.make 8 "")

let t_count = ref 0

let h_index : (string, int) Hashtbl.t = Hashtbl.create 16

let h_names = ref (Array.make 8 "")

let h_count = ref 0

let grow_s a =
  let b = Array.make (2 * Array.length !a) "" in
  Array.blit !a 0 b 0 (Array.length !a);
  a := b

let register index names count name =
  Mutex.lock reg_mutex;
  let i =
    match Hashtbl.find_opt index name with
    | Some i -> i
    | None ->
        if !count = Array.length !names then grow_s names;
        let i = !count in
        !names.(i) <- name;
        incr count;
        Hashtbl.add index name i;
        i
  in
  Mutex.unlock reg_mutex;
  i

type counter = int

let counter name = register c_index c_names c_count name

type timer = int

let timer name = register t_index t_names t_count name

(* Bucket i covers [2^(i-34), 2^(i-33)); bucket 0 additionally absorbs
   everything below, the last bucket everything above. *)
let n_buckets = 64

type histogram = int

let histogram name = register h_index h_names h_count name

(* ---------- per-domain shards ---------- *)

type shard = {
  sh_domain : int;  (* merge order key; domain ids are never reused *)
  mutable sh_c : int array;
  mutable sh_t_events : int array;
  mutable sh_t_totals : float array;
  mutable sh_h_cells : int array array;
  mutable sh_h_sums : float array;
}

let shards_mutex = Mutex.create ()

let shards : shard list ref = ref []

let shard_key : shard Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let s =
        {
          sh_domain = (Domain.self () :> int);
          sh_c = Array.make (max 16 !c_count) 0;
          sh_t_events = Array.make (max 8 !t_count) 0;
          sh_t_totals = Array.make (max 8 !t_count) 0.0;
          sh_h_cells = Array.init (max 8 !h_count) (fun _ -> Array.make n_buckets 0);
          sh_h_sums = Array.make (max 8 !h_count) 0.0;
        }
      in
      Mutex.lock shards_mutex;
      shards := s :: !shards;
      Mutex.unlock shards_mutex;
      s)

let shard () = Domain.DLS.get shard_key

(* Instruments can be registered after a shard was created (another
   domain, or post-spawn registration), so every accessor widens the
   shard arrays on demand. *)
let grown_i a n =
  let b = Array.make (max n (2 * Array.length a)) 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let grown_f a n =
  let b = Array.make (max n (2 * Array.length a)) 0.0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let counter_cells s c =
  if c >= Array.length s.sh_c then s.sh_c <- grown_i s.sh_c (c + 1);
  s.sh_c

let timer_cells s t =
  if t >= Array.length s.sh_t_events then begin
    s.sh_t_events <- grown_i s.sh_t_events (t + 1);
    s.sh_t_totals <- grown_f s.sh_t_totals (t + 1)
  end

let hist_cells s h =
  if h >= Array.length s.sh_h_cells then begin
    let b =
      Array.init
        (max (h + 1) (2 * Array.length s.sh_h_cells))
        (fun i ->
          if i < Array.length s.sh_h_cells then s.sh_h_cells.(i)
          else Array.make n_buckets 0)
    in
    s.sh_h_cells <- b;
    s.sh_h_sums <- grown_f s.sh_h_sums (h + 1)
  end;
  s.sh_h_cells.(h)

(* Snapshot under the shards mutex, oldest (lowest domain id) first, so
   float merges accumulate in a deterministic order. *)
let sorted_shards () =
  Mutex.lock shards_mutex;
  let l = !shards in
  Mutex.unlock shards_mutex;
  List.sort (fun a b -> compare a.sh_domain b.sh_domain) l

(* ---------- counters ---------- *)

let incr c =
  if !on then begin
    let a = counter_cells (shard ()) c in
    a.(c) <- a.(c) + 1
  end

let add c n =
  if !on then begin
    let a = counter_cells (shard ()) c in
    a.(c) <- a.(c) + n
  end

let value c =
  List.fold_left
    (fun acc s -> if c < Array.length s.sh_c then acc + s.sh_c.(c) else acc)
    0 (sorted_shards ())

(* ---------- timers ---------- *)

(* CLOCK_MONOTONIC in nanoseconds, read by bechamel's allocation-free
   stub: spans never go negative when the wall clock is stepped. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let record_span t span =
  if !on then begin
    let s = shard () in
    timer_cells s t;
    s.sh_t_events.(t) <- s.sh_t_events.(t) + 1;
    s.sh_t_totals.(t) <- s.sh_t_totals.(t) +. span
  end

let time t f =
  if !on then begin
    let t0 = now () in
    let r = f () in
    record_span t (now () -. t0);
    r
  end
  else f ()

(* ---------- histograms ---------- *)

let bucket_of v =
  if v < Float.ldexp 1.0 (-34) then 0
  else
    let e = snd (Float.frexp v) - 1 in
    (* v in [2^e, 2^(e+1)) *)
    Stdlib.min (n_buckets - 1) (Stdlib.max 0 (e + 34))

let observe h v =
  if !on then begin
    let s = shard () in
    let cells = hist_cells s h in
    let i = bucket_of v in
    cells.(i) <- cells.(i) + 1;
    s.sh_h_sums.(h) <- s.sh_h_sums.(h) +. v
  end

(* ---------- snapshots ---------- *)

type counter_view = { c_name : string; c_value : int }

type timer_view = { t_name : string; t_events : int; t_total_s : float }

type bucket = { b_lo : float; b_hi : float; b_count : int }

type histogram_view = {
  h_name : string;
  h_events : int;
  h_sum : float;
  h_buckets : bucket list;
}

type snapshot = {
  counters : counter_view list;
  timers : timer_view list;
  histograms : histogram_view list;
}

let bucket_bounds i = (Float.ldexp 1.0 (i - 34), Float.ldexp 1.0 (i - 33))

let snapshot () =
  let all = sorted_shards () in
  (* Capture (count, names) pairs under the registration mutex: a
     concurrent [register] from another domain swaps the names array
     ([grow_s]) and bumps the count non-atomically, so an unguarded
     reader can pair a new count with a stale (shorter, or
     partially-blank) array — yielding empty instrument names or an
     out-of-bounds read. Holding the mutex synchronizes-with the
     registering domain's release, so every slot below the captured
     count is fully written in the captured array. *)
  let n_c, names_c, n_t, names_t, n_h, names_h =
    Mutex.lock reg_mutex;
    let r = (!c_count, !c_names, !t_count, !t_names, !h_count, !h_names) in
    Mutex.unlock reg_mutex;
    r
  in
  let counters =
    List.init n_c (fun i ->
        let v =
          List.fold_left
            (fun acc s -> if i < Array.length s.sh_c then acc + s.sh_c.(i) else acc)
            0 all
        in
        { c_name = names_c.(i); c_value = v })
    |> List.sort (fun a b -> String.compare a.c_name b.c_name)
  in
  let timers =
    List.init n_t (fun i ->
        let events, total =
          List.fold_left
            (fun (e, tt) s ->
              if i < Array.length s.sh_t_events then
                (e + s.sh_t_events.(i), tt +. s.sh_t_totals.(i))
              else (e, tt))
            (0, 0.0) all
        in
        { t_name = names_t.(i); t_events = events; t_total_s = total })
    |> List.sort (fun a b -> String.compare a.t_name b.t_name)
  in
  let histograms =
    List.init n_h (fun i ->
        let cells = Array.make n_buckets 0 in
        let sum =
          List.fold_left
            (fun acc s ->
              if i < Array.length s.sh_h_cells then begin
                let sc = s.sh_h_cells.(i) in
                for b = 0 to n_buckets - 1 do
                  cells.(b) <- cells.(b) + sc.(b)
                done;
                acc +. s.sh_h_sums.(i)
              end
              else acc)
            0.0 all
        in
        let buckets = ref [] in
        let events = ref 0 in
        for b = n_buckets - 1 downto 0 do
          if cells.(b) > 0 then begin
            let lo, hi = bucket_bounds b in
            buckets := { b_lo = lo; b_hi = hi; b_count = cells.(b) } :: !buckets;
            events := !events + cells.(b)
          end
        done;
        {
          h_name = names_h.(i);
          h_events = !events;
          h_sum = sum;
          h_buckets = !buckets;
        })
    |> List.sort (fun a b -> String.compare a.h_name b.h_name)
  in
  { counters; timers; histograms }

let approx_quantile view q =
  if view.h_events = 0 then Float.nan
  else begin
    let target =
      Float.max 1.0 (Float.round (q *. float_of_int view.h_events))
    in
    let rec go acc = function
      | [] -> Float.nan
      | [ b ] -> ignore acc; sqrt (b.b_lo *. b.b_hi)
      | b :: rest ->
          let acc = acc + b.b_count in
          if float_of_int acc >= target then sqrt (b.b_lo *. b.b_hi)
          else go acc rest
    in
    go 0 view.h_buckets
  end

let reset () =
  List.iter
    (fun s ->
      Array.fill s.sh_c 0 (Array.length s.sh_c) 0;
      Array.fill s.sh_t_events 0 (Array.length s.sh_t_events) 0;
      Array.fill s.sh_t_totals 0 (Array.length s.sh_t_totals) 0.0;
      Array.iter (fun cells -> Array.fill cells 0 n_buckets 0) s.sh_h_cells;
      Array.fill s.sh_h_sums 0 (Array.length s.sh_h_sums) 0.0)
    (sorted_shards ())
