open Omflp_prelude
open Omflp_commodity
open Omflp_metric
open Omflp_instance
open Omflp_obs

(* Work counters (lib/obs). [pd.loop_iters] counts event-loop
   iterations, which fire exactly one tightness event each, so it always
   equals the sum of the four [pd.event.*] counters;
   [pd.facilities_opened] counts confirmed openings only ([open_small]
   events of a request that ended in a large facility are discarded
   tentatives). *)
let m_requests = Metrics.counter "pd.requests"

let m_loop_iters = Metrics.counter "pd.loop_iters"

let m_connect_small = Metrics.counter "pd.event.connect_small"

let m_open_small = Metrics.counter "pd.event.open_small"

let m_connect_large = Metrics.counter "pd.event.connect_large"

let m_open_large = Metrics.counter "pd.event.open_large"

let m_facilities_opened = Metrics.counter "pd.facilities_opened"

let m_cache_updates = Metrics.counter "pd.cache_updates"

type dual_record = {
  site : int;
  demand : Cset.t;
  duals : float array;
  dual_sum : float;
}

(* Local positive part for the innermost loops. [Numerics.pos] is a
   cross-module call, which without flambda boxes its float argument and
   result on every call — millions per run from here. A same-module
   single-comparison version stays inline and keeps the floats unboxed;
   the produced values are identical for every non-NaN input ([Float.max]
   and the branch agree on signed zeros), which the golden decision
   digests pin. *)
let[@inline] pos x = if x > 0.0 then x else 0.0

(* Past requests live in struct-of-arrays form, oldest first: request j's
   scalars sit at index j of [p_site]/[p_demand]/[p_dual_sum]/[p_cap4],
   its per-commodity duals and bid caps in the flat rows
   [j*s .. j*s + s - 1] of [p_duals]/[p_caps] ([caps] holds, per demanded
   commodity, the value min{a_je, d(F(e), j)} currently accounted in the
   bid caches; [cap4] the min{Σ a_je, d(F̂, j)} analogue).
   Every history walk runs newest-first ([for j = n_past-1 downto 0]) to
   preserve the float summation order of the previous cons-list
   representation, which the golden decision digests pin. *)
type t = {
  metric : Finite_metric.t;
  cost : Cost_function.t;
  store : Facility_store.t;
  s : int; (* number of commodities *)
  n_sites : int;
  mutable n_past : int;
  mutable p_site : int array;
  mutable p_demand : Cset.t array;
  mutable p_dual_sum : float array;
  mutable p_cap4 : float array;
  mutable p_duals : float array; (* flat n_past x s *)
  mutable p_caps : float array; (* flat n_past x s *)
  (* Bid sums of all past requests, maintained across arrivals (they only
     move when a facility opens): [b3_cache.(e*n_sites + m)] is the
     constraint-(3) bid sum towards a small facility {e} at site m;
     [b4_cache.(m)] the constraint-(4) analogue. *)
  b3_cache : float array;
  b4_cache : float array;
  (* Hot-path tables and scratch, set up once at creation.
     [f3.(e).(m)] = singleton opening cost of {e} at m (rows built
     lazily on a commodity's first demand), [f4.(m)] = full cost at m:
     the event loop probes these every iteration and
     [Cost_function.singleton_cost] allocates a fresh commodity set per
     call, so the table turns an allocating closure dispatch into an
     array read (identical float values — the cost function is pure).
     The [scratch_*] buffers are reused across [step] calls; the
     request's own duals and caps are written directly into their
     [p_duals]/[p_caps] rows, so a step allocates nothing on the event
     path. [scratch_fb] carries floats
     across the [consider] call boundary unboxed: slot 0 the candidate
     delta, slot 1 the best delta, slot 2 the running dual sum. *)
  f3 : float array option array;
  f4 : float array;
  scratch_es : int array;
  scratch_serving_kind : int array; (* 0 unserved / 1 existing / 2 temp *)
  scratch_serving_id : int array; (* facility id (1) or temp site (2) *)
  scratch_unserved : int array;
  scratch_fb : float array;
  (* Snapshot deltas. [stream] decides whether the next segment is a base
     or a delta; [mark] is [n_past] at the last segment; the rows below
     it whose bid caps [note_facility_opened] lowered since then are
     [lowered.(0 .. n_lowered-1)], each listed once ([p_lowered] flags
     them). Both arrays grow with the history, so recording a lowered
     cap allocates nothing. *)
  stream : Snapshot_codec.stream;
  mutable mark : int;
  mutable p_lowered : Bytes.t;
  mutable lowered : int array;
  mutable n_lowered : int;
}

let name = "PD-OMFLP"
let family = Problem_env.Family.Omflp

let create ?seed:_ env =
  let metric, cost = Problem_env.require_omflp ~algo:name env in
  let n_commodities = Cost_function.n_commodities cost in
  let n_sites = Finite_metric.size metric in
  {
    metric;
    cost;
    store = Facility_store.create env ~n_commodities;
    s = n_commodities;
    n_sites;
    n_past = 0;
    p_site = [||];
    p_demand = [||];
    p_dual_sum = [||];
    p_cap4 = [||];
    p_duals = [||];
    p_caps = [||];
    b3_cache = Array.make (n_commodities * n_sites) 0.0;
    b4_cache = Array.make n_sites 0.0;
    f3 = Array.make n_commodities None;
    f4 = Array.init n_sites (fun m -> Cost_function.full_cost cost m);
    scratch_es = Array.make n_commodities 0;
    scratch_serving_kind = Array.make n_commodities 0;
    scratch_serving_id = Array.make n_commodities (-1);
    scratch_unserved = Array.make n_commodities 0;
    scratch_fb = Array.make 3 0.0;
    stream = Snapshot_codec.stream ();
    mark = 0;
    p_lowered = Bytes.empty;
    lowered = [||];
    n_lowered = 0;
  }

(* Room for [need] history rows. *)
let reserve t need =
  let cap = Array.length t.p_site in
  if need > cap then begin
    (* Start small: the first growth zeroes [ncap * s] floats for the
       dual and cap rows, which dominates whole short runs when the
       commodity set is large (the theorem-2 adversary pairs |S|=1024
       with 32 requests). Doubling from 8 keeps that first touch
       proportional to what a short run actually uses. *)
    let ncap = max need (max 8 (2 * cap)) in
    let grow_int a len =
      let a' = Array.make ncap 0 in
      Array.blit a 0 a' 0 len;
      a'
    in
    let grow_float a len len' =
      let a' = Array.make len' 0.0 in
      Array.blit a 0 a' 0 len;
      a'
    in
    t.p_site <- grow_int t.p_site cap;
    let dem = Array.make ncap (Cset.empty ~n_commodities:t.s) in
    Array.blit t.p_demand 0 dem 0 cap;
    t.p_demand <- dem;
    t.p_dual_sum <- grow_float t.p_dual_sum cap ncap;
    t.p_cap4 <- grow_float t.p_cap4 cap ncap;
    t.p_duals <- grow_float t.p_duals (cap * t.s) (ncap * t.s);
    t.p_caps <- grow_float t.p_caps (cap * t.s) (ncap * t.s);
    let flags = Bytes.make ncap '\000' in
    Bytes.blit t.p_lowered 0 flags 0 cap;
    t.p_lowered <- flags;
    t.lowered <- grow_int t.lowered t.n_lowered
  end

(* Row [j]'s caps were lowered: a delta must carry them, unless row [j]
   is new since the mark and goes out whole anyway. *)
let note_lowered t j =
  if j < t.mark && Bytes.unsafe_get t.p_lowered j = '\000' then begin
    Bytes.unsafe_set t.p_lowered j '\001';
    t.lowered.(t.n_lowered) <- j;
    t.n_lowered <- t.n_lowered + 1
  end

(* Cache maintenance: a newly opened facility at [fs] can only shrink
   past caps — min{a, d(F(e), j)} becomes min{old cap, d(j, fs)} — so
   each affected (request, commodity) adjusts the caches by the
   difference of its contribution. Only the opened configuration's
   commodities can move, so a small facility {e} visits commodity e
   alone. The walk is newest-first, matching the old cons-list order. *)
let note_facility_opened t (fac : Facility.t) =
  let n_sites = t.n_sites in
  let fs = fac.site and offered = fac.offered in
  let e_lo, e_hi =
    match fac.kind with Facility.Small e -> (e, e) | _ -> (0, t.s - 1)
  in
  let offers_all = Cset.is_full offered in
  let b3 = t.b3_cache and b4 = t.b4_cache in
  for j = t.n_past - 1 downto 0 do
    (* One metric row covers every distance from this past request:
       row_j.(x) = d(j, x), the exact orientation the per-cell [dist]
       calls used. *)
    let row_j = Finite_metric.row t.metric t.p_site.(j) in
    let d_jf = row_j.(fs) in
    let dem = t.p_demand.(j) in
    let cbase = j * t.s in
    for e = e_lo to e_hi do
      if
        Cset.mem dem e && Cset.mem offered e && d_jf < t.p_caps.(cbase + e)
      then begin
        let old_cap = t.p_caps.(cbase + e) in
        let bb = e * n_sites in
        for m = 0 to n_sites - 1 do
          let d = row_j.(m) in
          b3.(bb + m) <- b3.(bb + m) +. pos (d_jf -. d) -. pos (old_cap -. d)
        done;
        Metrics.add m_cache_updates n_sites;
        t.p_caps.(cbase + e) <- d_jf;
        note_lowered t j
      end
    done;
    if offers_all && d_jf < t.p_cap4.(j) then begin
      let old_cap = t.p_cap4.(j) in
      for m = 0 to n_sites - 1 do
        let d = row_j.(m) in
        b4.(m) <- b4.(m) +. pos (d_jf -. d) -. pos (old_cap -. d)
      done;
      Metrics.add m_cache_updates n_sites;
      t.p_cap4.(j) <- d_jf;
      note_lowered t j
    end
  done

let f3_row t e =
  match t.f3.(e) with
  | Some row -> row
  | None ->
      let row =
        Array.init t.n_sites (fun m -> Cost_function.singleton_cost t.cost m e)
      in
      t.f3.(e) <- Some row;
      row

let open_facility t ~site ~kind =
  let cost =
    match kind with
    | Facility.Small e -> (f3_row t e).(site)
    | Facility.Large -> t.f4.(site)
    | Facility.Custom sigma -> Cost_function.eval t.cost site sigma
  in
  let fac = Facility_store.open_facility t.store ~site ~kind ~cost in
  Metrics.incr m_facilities_opened;
  note_facility_opened t fac;
  fac

let step t (r : Request.t) =
  let n_sites = t.n_sites in
  let s = t.s in
  reserve t (t.n_past + 1);
  let es = t.scratch_es in
  let k_total =
    let k = ref 0 in
    Cset.iter
      (fun e ->
        es.(!k) <- e;
        Stdlib.incr k)
      r.demand;
    !k
  in
  (* The request's duals accumulate directly in its (pre-zeroed) row of
     [p_duals]; [abase + e] is the old [a.(e)]. *)
  let abase = t.n_past * s in
  let duals = t.p_duals in
  Array.fill duals abase s 0.0;
  Array.fill t.p_caps abase s 0.0;
  let sk = t.scratch_serving_kind and sid = t.scratch_serving_id in
  Array.fill sk 0 s 0;
  (* d_rm.(m) = d(r, m): the metric's own row, fetched once (read-only). *)
  let d_rm = Finite_metric.row t.metric r.site in
  (* Flat read-only views of the nearest-open-facility tables; they are
     mutated in place by openings, so these stay current through the
     step. *)
  let idx = Facility_store.index t.store in
  let nd = Nearest_index.flat_dist idx in
  let nid = Nearest_index.flat_id idx in
  let ndl = Nearest_index.dist_large_row idx in
  let nil = Nearest_index.id_large_row idx in
  (* Bid sums of past requests (constraints (3) and (4)) are constant
     during one arrival: facilities only open once processing ends, so the
     caps min{a_je, d(F(e), j)} and min{Σa_je, d(F̂, j)} do not move, and
     the maintained caches are read as they stand. *)
  let b3 = t.b3_cache and b4 = t.b4_cache in
  let fb = t.scratch_fb in
  fb.(2) <- 0.0 (* Σ a_re so far *);
  let large_kind = ref 0 (* 0 none / 1 existing / 2 new *) in
  let large_tgt = ref (-1) in
  let finished = ref false in
  (* Indices into [es] still unserved, in ascending order — compacted in
     place after every event instead of rebuilt as a fresh list per loop
     iteration (the loop body only serves commodities, so compaction
     preserves the ascending iteration order the tie-breaks depend on). *)
  let unserved = t.scratch_unserved in
  for i = 0 to k_total - 1 do
    unserved.(i) <- i
  done;
  let n_unserved = ref k_total in
  while not !finished do
    let w = ref 0 in
    for u = 0 to !n_unserved - 1 do
      let i = unserved.(u) in
      if sk.(es.(i)) = 0 then begin
        unserved.(!w) <- i;
        Stdlib.incr w
      end
    done;
    n_unserved := !w;
    if !n_unserved = 0 then finished := true
    else begin
      Metrics.incr m_loop_iters;
      let k = float_of_int !n_unserved in
      (* Collect the earliest event; ties resolved by event rank
         (E1 connect-small = 0, E3 open-small = 1, E2 connect-large = 2,
         E4 open-large = 3 — connections and small facilities, the
         paper's lines 3–5, before large ones, lines 6–9), then by
         commodity index, then by site. Deltas within a relative 1e-9 of
         each other count as tied, so tie-breaking does not hinge on the
         rounding noise between the maintained bid caches and a fresh
         summation of the same bids (integer-valued cost functions
         produce exact (3)-vs-(4) ties all the time). The candidate delta
         enters [consider] through fb.(0) and the best lives in fb.(1):
         int-only arguments keep the floats unboxed across the call. *)
      let has_best = ref false in
      let best_rank = ref 0 and best_i = ref 0 and best_m = ref 0 in
      let consider rank i m =
        let delta = Float.max fb.(0) 0.0 in
        if not !has_best then begin
          has_best := true;
          fb.(1) <- delta;
          best_rank := rank;
          best_i := i;
          best_m := m
        end
        else begin
          let bd = fb.(1) in
          let eps = 1e-9 *. Float.max 1.0 (Float.max delta bd) in
          if delta < bd -. eps then begin
            fb.(1) <- delta;
            best_rank := rank;
            best_i := i;
            best_m := m
          end
          else if delta <= bd +. eps then begin
            let br = !best_rank and bi = !best_i and bm = !best_m in
            if rank < br || (rank = br && (i < bi || (i = bi && m < bm)))
            then begin
              (* Tie: keep the smaller delta as the anchor so chains of
                 near-ties cannot drift. *)
              fb.(1) <- Float.min delta bd;
              best_rank := rank;
              best_i := i;
              best_m := m
            end
          end
        end
      in
      for u = 0 to !n_unserved - 1 do
        let i = unserved.(u) in
        let e = es.(i) in
        let ae = duals.(abase + e) in
        let d_fe = nd.((e * n_sites) + r.site) in
        if d_fe < infinity then begin
          fb.(0) <- d_fe -. ae;
          consider 0 i 0
        end;
        let f3e = f3_row t e in
        let bb = e * n_sites in
        for m = 0 to n_sites - 1 do
          (* Tight when (a_re - d(m,r))+ + B3 = f: the own bid must be
             active, i.e. a_re reaches d(m,r) + (f - B3)+. Waiting until
             then never violates the constraint because B3 <= f holds at
             every arrival. *)
          let target = d_rm.(m) +. pos (f3e.(m) -. b3.(bb + m)) in
          fb.(0) <- target -. ae;
          consider 1 i m
        done
      done;
      let d_large = ndl.(r.site) in
      if d_large < infinity then begin
        fb.(0) <- (d_large -. fb.(2)) /. k;
        consider 2 0 0
      end;
      for m = 0 to n_sites - 1 do
        let target = d_rm.(m) +. pos (t.f4.(m) -. b4.(m)) in
        fb.(0) <- (target -. fb.(2)) /. k;
        consider 3 0 m
      done;
      if not !has_best then assert false (* E3 events always exist *);
      let delta = fb.(1) in
      for u = 0 to !n_unserved - 1 do
        let e = es.(unserved.(u)) in
        duals.(abase + e) <- duals.(abase + e) +. delta
      done;
      fb.(2) <- fb.(2) +. (k *. delta);
      (match !best_rank with
      | 0 ->
          let e = es.(!best_i) in
          let fid = nid.((e * n_sites) + r.site) in
          sk.(e) <- 1;
          sid.(e) <- fid;
          Metrics.incr m_connect_small
      | 1 ->
          let e = es.(!best_i) in
          let m = !best_m in
          sk.(e) <- 2;
          sid.(e) <- m;
          Metrics.incr m_open_small
      | 2 ->
          let fid = nil.(r.site) in
          large_kind := 1;
          large_tgt := fid;
          Metrics.incr m_connect_large;
          finished := true
      | _ ->
          let m = !best_m in
          large_kind := 2;
          large_tgt := m;
          Metrics.incr m_open_large;
          finished := true)
    end
  done;
  let service =
    if !large_kind <> 0 then
      (* Lines 7–9: the whole request is served by one large facility;
         tentative small facilities are discarded. *)
      let fid =
        if !large_kind = 1 then !large_tgt
        else
          (open_facility t ~site:!large_tgt ~kind:Facility.Large).Facility.id
      in
      Service.To_single fid
    else begin
      (* Line 10: confirm the remaining tentative small facilities, in
         ascending commodity order (facility ids depend on it). *)
      let pairs_rev = ref [] in
      for i = 0 to k_total - 1 do
        let e = es.(i) in
        let pair =
          match sk.(e) with
          | 1 -> (e, sid.(e))
          | 2 ->
              ( e,
                (open_facility t ~site:(sid.(e)) ~kind:(Facility.Small e))
                  .Facility.id )
          | _ -> assert false
        in
        pairs_rev := pair :: !pairs_rev
      done;
      Service.Per_commodity (List.rev !pairs_rev)
    end
  in
  Facility_store.record_service t.store ~request_site:r.site service;
  (* Record the request's bid caps (capped by the post-opening facility
     distances — the index rows already reflect this step's openings) and
     add its contributions to the caches; d_rm.(m) = d(r, m). *)
  let caps = t.p_caps in
  for i = 0 to k_total - 1 do
    let e = es.(i) in
    let cap_e = Float.min duals.(abase + e) nd.((e * n_sites) + r.site) in
    caps.(abase + e) <- cap_e;
    let bb = e * n_sites in
    for m = 0 to n_sites - 1 do
      b3.(bb + m) <- b3.(bb + m) +. pos (cap_e -. d_rm.(m))
    done;
    Metrics.add m_cache_updates n_sites
  done;
  let cap4 = Float.min fb.(2) ndl.(r.site) in
  for m = 0 to n_sites - 1 do
    b4.(m) <- b4.(m) +. pos (cap4 -. d_rm.(m))
  done;
  Metrics.add m_cache_updates n_sites;
  t.p_site.(t.n_past) <- r.site;
  t.p_demand.(t.n_past) <- r.demand;
  t.p_dual_sum.(t.n_past) <- fb.(2);
  t.p_cap4.(t.n_past) <- cap4;
  t.n_past <- t.n_past + 1;
  Metrics.incr m_requests;
  service

let run_so_far t = Run.of_store ~algorithm:name t.store

let dual_records t =
  let acc = ref [] in
  for j = t.n_past - 1 downto 0 do
    acc :=
      {
        site = t.p_site.(j);
        demand = t.p_demand.(j);
        duals = Array.sub t.p_duals (j * t.s) t.s;
        dual_sum = t.p_dual_sum.(j);
      }
      :: !acc
  done;
  !acc

let dual_objective t =
  (* Newest-first, like the cons-list fold it replaces. *)
  let acc = ref 0.0 in
  for j = t.n_past - 1 downto 0 do
    acc := !acc +. t.p_dual_sum.(j)
  done;
  !acc

let store t = t.store

(* ---------- snapshot / restore ---------- *)

(* A segment's payload: the store (whole in a base, only its new
   facilities and services in a delta), the history rows from the mark
   on with their frozen duals and current bid caps, the maintained bid
   caches, and the rows below the mark whose caps [note_facility_opened]
   lowered since the previous segment. A base is the same payload with
   the mark at row 0: the delta against the empty state. Neither the caches nor the lowered caps are recomputed on
   restore. The caches were produced by a particular interleaving of
   additions and cap adjustments whose float rounding a fresh summation
   would not reproduce; a lowered cap recomputed as min(dual, distance to
   the nearest facility) can differ from the stored one in the last bit
   (seen once in 600 fuzzed runs). Byte-identical continuation needs the
   exact values, so both travel verbatim. Scratch buffers and the pure
   cost tables (f3/f4) are rebuilt by [create]. *)

let snapshot_tag = "omflp.snap.pd-omflp.v4"

(* Rows [from, n_past) and the caches. *)
let write_rows b t ~from =
  let k = t.n_past - from in
  Snapshot_codec.w_int b k;
  for j = from to t.n_past - 1 do
    Snapshot_codec.w_int b t.p_site.(j)
  done;
  for j = from to t.n_past - 1 do
    Cset.write b t.p_demand.(j)
  done;
  Snapshot_codec.w_float_sub b t.p_dual_sum from k;
  Snapshot_codec.w_float_sub b t.p_cap4 from k;
  Snapshot_codec.w_float_sub b t.p_duals (from * t.s) (k * t.s);
  Snapshot_codec.w_float_sub b t.p_caps (from * t.s) (k * t.s);
  Snapshot_codec.w_float_array b t.b3_cache;
  Snapshot_codec.w_float_array b t.b4_cache

let write b t =
  Facility_store.write b t.store;
  write_rows b t ~from:0;
  Snapshot_codec.w_int b 0 (* no row lies below row 0 *)

let write_delta b t =
  Facility_store.write_new b t.store;
  write_rows b t ~from:t.mark;
  Snapshot_codec.w_int b t.n_lowered;
  for i = 0 to t.n_lowered - 1 do
    let j = t.lowered.(i) in
    Snapshot_codec.w_int b j;
    Snapshot_codec.w_float b t.p_cap4.(j);
    Snapshot_codec.w_float_sub b t.p_caps (j * t.s) t.s
  done

let snapshot t =
  let seg =
    Snapshot_codec.next t.stream ~tag:snapshot_tag ~count:t.n_past
      (fun kind b ->
        match kind with
        | Snapshot_codec.Base -> write b t
        | Snapshot_codec.Delta -> write_delta b t)
  in
  Facility_store.mark t.store;
  t.mark <- t.n_past;
  for i = 0 to t.n_lowered - 1 do
    Bytes.set t.p_lowered t.lowered.(i) '\000'
  done;
  t.n_lowered <- 0;
  seg

(* The mirror of [write_rows] and the lowered caps: appends the rows
   after the ones [t] holds. *)
let read_rows t r =
  let from = t.n_past in
  let floats dst off len =
    let a = Snapshot_codec.r_float_array r in
    if Array.length a <> len then
      failwith "Pd_omflp.restore: inconsistent history arrays";
    Array.blit a 0 dst off len
  in
  let sites = Snapshot_codec.r_int_array r in
  let k = Array.length sites in
  reserve t (from + k);
  Array.iteri
    (fun i p ->
      if p < 0 || p >= t.n_sites then
        failwith "Pd_omflp.restore: history site out of range";
      t.p_site.(from + i) <- p)
    sites;
  for j = from to from + k - 1 do
    let d = Cset.read r in
    if Cset.n_commodities d <> t.s then
      failwith "Pd_omflp.restore: demand universe mismatch";
    t.p_demand.(j) <- d
  done;
  floats t.p_dual_sum from k;
  floats t.p_cap4 from k;
  floats t.p_duals (from * t.s) (k * t.s);
  floats t.p_caps (from * t.s) (k * t.s);
  t.n_past <- from + k;
  floats t.b3_cache 0 (Array.length t.b3_cache);
  floats t.b4_cache 0 (Array.length t.b4_cache);
  ignore
    (Snapshot_codec.r_list
       (fun r ->
         let j = Snapshot_codec.r_int r in
         if j < 0 || j >= from then
           failwith "Pd_omflp.restore: lowered cap of a row not yet restored";
         t.p_cap4.(j) <- Snapshot_codec.r_float r;
         floats t.p_caps (j * t.s) t.s)
       r)

let read env r =
  let t = create env in
  let t = { t with store = Facility_store.read env r } in
  read_rows t r;
  t

let read_delta t r =
  Facility_store.read_new t.store r;
  read_rows t r

let restore env blob =
  Snapshot_codec.decode ~tag:snapshot_tag ~delta:read_delta (read env) blob

let cache_drift t =
  let n_sites = t.n_sites in
  let s = t.s in
  let drift = ref 0.0 in
  for e = 0 to s - 1 do
    for m = 0 to n_sites - 1 do
      (* Newest-first fold, like the cons-list fold it replaces. *)
      let fresh = ref 0.0 in
      for j = t.n_past - 1 downto 0 do
        if Cset.mem t.p_demand.(j) e then begin
          let cap =
            Float.min
              t.p_duals.((j * s) + e)
              (Facility_store.dist_offering t.store ~commodity:e
                 ~from:t.p_site.(j))
          in
          fresh :=
            !fresh +. pos (cap -. Finite_metric.dist t.metric t.p_site.(j) m)
        end
      done;
      drift :=
        Float.max !drift (Float.abs (!fresh -. t.b3_cache.((e * n_sites) + m)))
    done
  done;
  for m = 0 to n_sites - 1 do
    let fresh = ref 0.0 in
    for j = t.n_past - 1 downto 0 do
      let cap =
        Float.min t.p_dual_sum.(j)
          (Facility_store.dist_large t.store ~from:t.p_site.(j))
      in
      fresh := !fresh +. pos (cap -. Finite_metric.dist t.metric t.p_site.(j) m)
    done;
    drift := Float.max !drift (Float.abs (!fresh -. t.b4_cache.(m)))
  done;
  !drift
