open Omflp_prelude
open Omflp_commodity
open Omflp_instance

(* NONMETRIC-BF — deterministic online non-metric facility location in
   the style of Bienkowski–Feldkord (arXiv:2007.07025): connection costs
   come from an arbitrary non-negative matrix, so nearest-index tricks
   (which assume the triangle inequality) are off the table and the
   algorithm works on the covering formulation instead.

   Per (commodity, site) it maintains a monotone fractional opening
   variable x_{e,m}, raised by the classic multiplicative-update rule for
   online set cover against weights w_m = f^{{e}}_m + conn(m, r) whenever
   the arriving (request, commodity) pair is not yet fractionally
   covered. Deterministic threshold rounding opens a singleton facility
   once its variable reaches 1/2. Whatever demand is still integrally
   uncovered afterwards is closed by one greedy weighted-cover step over
   candidate configurations ({e} and the full uncovered bundle per site)
   via {!Omflp_covering.Set_cover}, which also gives the multi-commodity
   bundling the single-commodity covering scheme lacks. *)

type t = {
  cost : Cost_function.t;
  conn : float array array; (* conn.(facility_site).(request_site) *)
  env : Problem_env.t;
  store : Facility_store.t;
  s : int;
  n_sites : int;
  f3 : float array array; (* f3.(e).(m) = f^{{e}}_m *)
  x : float array array; (* fractional openings, s × n_sites *)
  opened : bool array array; (* Small-e facility already at m? s × n_sites *)
  mutable n_requests : int;
}

let name = "NONMETRIC-BF"
let family = Problem_env.Family.Nonmetric_fl

let create ?seed:_ env =
  let _metric, cost, conn = Problem_env.require_nonmetric ~algo:name env in
  let s = Cost_function.n_commodities cost in
  let n_sites = Cost_function.n_sites cost in
  {
    cost;
    conn;
    env;
    store = Facility_store.create env ~n_commodities:s;
    s;
    n_sites;
    f3 =
      Array.init s (fun e ->
          Array.init n_sites (fun m -> Cost_function.singleton_cost cost m e));
    x = Array.make_matrix s n_sites 0.0;
    opened = Array.make_matrix s n_sites false;
    n_requests = 0;
  }

(* Cheapest open facility offering [e] for a request at [site]: minimal
   connection cost, ties to the earliest opening. Linear scan — no
   triangle inequality, so no index can answer this. *)
let best_open t ~commodity ~site =
  List.fold_left
    (fun acc (f : Facility.t) ->
      if Cset.mem f.Facility.offered commodity then
        let c = t.conn.(f.Facility.site).(site) in
        match acc with
        | Some (_, best) when best <= c -> acc
        | _ -> Some (f.Facility.id, c)
      else acc)
    None
    (Facility_store.facilities t.store)

let fractional_round t ~site e =
  let xs = t.x.(e) and f3e = t.f3.(e) in
  let coverage () =
    let acc = ref 0.0 in
    for m = 0 to t.n_sites - 1 do
      acc := !acc +. Float.min 1.0 xs.(m)
    done;
    !acc
  in
  let guard = ref 0 in
  while coverage () < 1.0 && !guard < 128 do
    incr guard;
    for m = 0 to t.n_sites - 1 do
      let w = f3e.(m) +. t.conn.(m).(site) in
      let inv = if w > 0.0 then 1.0 /. w else 1e18 in
      xs.(m) <-
        (xs.(m) *. (1.0 +. inv)) +. (inv /. float_of_int t.n_sites)
    done
  done;
  (* Threshold rounding: open every singleton whose variable crossed. *)
  for m = 0 to t.n_sites - 1 do
    if xs.(m) >= 0.5 && not t.opened.(e).(m) then begin
      t.opened.(e).(m) <- true;
      ignore
        (Facility_store.open_facility t.store ~site:m ~kind:(Facility.Small e)
           ~cost:f3e.(m) ~opened_at:t.n_requests)
    end
  done

(* Greedy weighted cover over the still-uncovered demand: candidate sets
   are, per site, each uncovered singleton and the whole uncovered bundle. *)
let cover_remaining t ~site uncovered =
  let u = List.filter (fun e -> best_open t ~commodity:e ~site = None) uncovered in
  if u <> [] then begin
    let target = Bitset.of_list t.s u in
    let candidates = ref [] in
    for m = t.n_sites - 1 downto 0 do
      List.iter
        (fun e ->
          candidates :=
            ( Omflp_covering.Set_cover.
                {
                  weight = t.f3.(e).(m) +. t.conn.(m).(site);
                  members = Bitset.singleton t.s e;
                },
              (m, `Single e) )
            :: !candidates)
        u;
      if List.length u >= 2 then begin
        let sigma = Cset.of_list ~n_commodities:t.s u in
        candidates :=
          ( Omflp_covering.Set_cover.
              {
                weight = Cost_function.eval t.cost m sigma +. t.conn.(m).(site);
                members = Bitset.of_list t.s u;
              },
            (m, `Bundle sigma) )
          :: !candidates
      end
    done;
    let sets = Array.of_list (List.map fst !candidates) in
    let meta = Array.of_list (List.map snd !candidates) in
    let picks, _ = Omflp_covering.Set_cover.greedy_partial ~target sets in
    List.iter
      (fun i ->
        let m, what = meta.(i) in
        match what with
        | `Single e ->
            if not t.opened.(e).(m) then begin
              t.opened.(e).(m) <- true;
              ignore
                (Facility_store.open_facility t.store ~site:m
                   ~kind:(Facility.Small e) ~cost:t.f3.(e).(m)
                   ~opened_at:t.n_requests)
            end
        | `Bundle sigma ->
            ignore
              (Facility_store.open_facility t.store ~site:m
                 ~kind:(Facility.Custom sigma)
                 ~cost:(Cost_function.eval t.cost m sigma)
                 ~opened_at:t.n_requests))
      (List.sort compare picks)
  end

let step t (r : Request.t) =
  let site = r.Request.site in
  let demand = Cset.elements r.Request.demand in
  (* Fractional progress + threshold openings only for commodities no
     open facility offers yet. *)
  List.iter
    (fun e ->
      if best_open t ~commodity:e ~site = None then fractional_round t ~site e)
    demand;
  cover_remaining t ~site demand;
  let pairs =
    List.map
      (fun e ->
        match best_open t ~commodity:e ~site with
        | Some (id, _) -> (e, id)
        | None -> assert false (* cover_remaining closed the gap *))
      demand
  in
  let service = Service.Per_commodity pairs in
  Facility_store.record_service t.store ~request_site:site service;
  t.n_requests <- t.n_requests + 1;
  service

let run_so_far t = Run.of_store ~algorithm:name t.store
let store t = t.store

(* Persisted: the fractional matrix, the store, and the clock. The
   [opened] flags are a pure function of the store and are rebuilt. *)

let snapshot_tag = "omflp.snap.nonmetric-bf.v2"

let snapshot t =
  Snapshot_codec.encode ~tag:snapshot_tag (fun b ->
      Snapshot_codec.w_array Snapshot_codec.w_float_array b t.x;
      Facility_store.write_persisted b (Facility_store.persist t.store);
      Snapshot_codec.w_int b t.n_requests)

let restore env blob =
  Snapshot_codec.decode ~tag:snapshot_tag
    (fun r ->
      let z_x = Snapshot_codec.r_array Snapshot_codec.r_float_array r in
      let z_store = Facility_store.read_persisted r in
      let n_requests = Snapshot_codec.r_int r in
      let t = create env in
      if Array.length z_x <> t.s then
        failwith "Nonmetric_bf.restore: commodity count mismatch";
      Array.iteri
        (fun e row ->
          if Array.length row <> t.n_sites then
            failwith "Nonmetric_bf.restore: site count mismatch";
          Array.blit row 0 t.x.(e) 0 t.n_sites)
        z_x;
      let t = { t with store = Facility_store.of_persisted env z_store; n_requests } in
      List.iter
        (fun (f : Facility.t) ->
          match f.Facility.kind with
          | Facility.Small e -> t.opened.(e).(f.Facility.site) <- true
          | _ -> ())
        (Facility_store.facilities t.store);
      t)
    blob
