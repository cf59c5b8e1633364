open Omflp_commodity
open Omflp_metric
open Omflp_obs

let m_openings = Metrics.counter "index.openings"

let m_cell_updates = Metrics.counter "index.cell_updates"

(* Single flat unboxed arrays instead of per-commodity rows: cell
   (commodity e, site p) lives at [e * n_sites + p]. The PD/RAND step
   loops read distances far more often than ids, and a flat float array
   scan has no pointer chasing, no outer-array bounds check, and no tuple
   allocation. *)
type t = {
  n_commodities : int;
  n_sites : int;
  dist : float array; (* (commodity * n_sites + site) -> d(F(e), site) *)
  id : int array; (* (commodity * n_sites + site) -> facility id, -1 if none *)
  dist_large : float array; (* site -> d(F^, site) *)
  id_large : int array;
}

let create ~n_commodities ~n_sites =
  {
    n_commodities;
    n_sites;
    dist = Array.make (max 1 (n_commodities * n_sites)) infinity;
    id = Array.make (max 1 (n_commodities * n_sites)) (-1);
    dist_large = Array.make (max 1 n_sites) infinity;
    id_large = Array.make (max 1 n_sites) (-1);
  }

let note_opened t metric ~site ~offered ~id =
  Metrics.incr m_openings;
  (* One metric row serves the whole update: row.(p) = dist p site by
     symmetry. Looping commodity-major keeps each table segment hot in
     cache. The select style (compare once, conditional-move both cells)
     keeps the scan flat; ties keep the earlier opening via strict [<]. *)
  let row = Finite_metric.row metric site in
  let updates = ref 0 in
  let n = t.n_sites in
  let de = t.dist and ide = t.id in
  Cset.iter
    (fun e ->
      let base = e * n in
      for p = 0 to n - 1 do
        let d = Array.unsafe_get row p in
        let j = base + p in
        let smaller = d < Array.unsafe_get de j in
        if smaller then begin
          Array.unsafe_set de j d;
          Array.unsafe_set ide j id;
          incr updates
        end
      done)
    offered;
  if Cset.is_full offered then begin
    let dl = t.dist_large and il = t.id_large in
    for p = 0 to n - 1 do
      let d = Array.unsafe_get row p in
      let smaller = d < Array.unsafe_get dl p in
      if smaller then begin
        Array.unsafe_set dl p d;
        Array.unsafe_set il p id;
        incr updates
      end
    done
  end;
  Metrics.add m_cell_updates !updates

(* Queries are deliberately uncounted: they sit in the innermost event
   loops and must stay raw array reads. *)
let dist t ~commodity ~site = t.dist.((commodity * t.n_sites) + site)

let id t ~commodity ~site = t.id.((commodity * t.n_sites) + site)

let dist_large t ~site = t.dist_large.(site)

let id_large t ~site = t.id_large.(site)

(* Read-only flat views for hot loops; commodity [e]'s row starts at
   [e * n_sites]. Callers must not mutate. *)
let flat_dist t = t.dist

let flat_id t = t.id

let dist_large_row t = t.dist_large

let id_large_row t = t.id_large
