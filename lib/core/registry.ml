module Family = Omflp_instance.Problem_env.Family

let all () : (string * (module Algo_intf.ALGO)) list =
  [
    (Pd_omflp.name, (module Pd_omflp));
    (Rand_omflp.name, (module Rand_omflp));
    (Indep_baseline.name, (module Indep_baseline));
    (All_large_baseline.name, (module All_large_baseline));
    (Greedy_baseline.name, (module Greedy_baseline));
  ]

let extended () =
  all ()
  @ [
      (Heavy_aware.name, (module Heavy_aware : Algo_intf.ALGO));
      (Ofl_adapter.Meyerson_ofl.name, (module Ofl_adapter.Meyerson_ofl));
      (Ofl_adapter.Fotakis_ofl.name, (module Ofl_adapter.Fotakis_ofl));
      (Nonmetric_bf.name, (module Nonmetric_bf));
      (Lease_pd.name, (module Lease_pd));
    ]

let family_of (module A : Algo_intf.ALGO) = A.family

let of_family fam =
  List.filter (fun (_, a) -> family_of a = fam) (extended ())

(* The algorithm set a family's "run everything" entry points use: the
   paper's canonical five for OMFLP, every registered algorithm of the
   family otherwise. *)
let canonical_for = function
  | Family.Omflp -> all ()
  | fam -> of_family fam

let names () = List.map fst (extended ())

let find name =
  let norm = String.lowercase_ascii name in
  match
    List.find_map
      (fun (n, a) -> if String.lowercase_ascii n = norm then Some a else None)
      (extended ())
  with
  | Some a -> Ok a
  | None -> Error (`Unknown_algo (name, names ()))

let unknown_algo_message (`Unknown_algo (name, available)) =
  Printf.sprintf "unknown algorithm %S (available: %s)" name
    (String.concat ", " available)
