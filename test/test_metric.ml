open Omflp_prelude
open Omflp_metric

let check_float = Alcotest.(check (float 1e-9))
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------- Finite_metric ---------- *)

let test_line () =
  let m = Finite_metric.line [| 0.0; 3.0; 7.0 |] in
  check_float "d01" 3.0 (Finite_metric.dist m 0 1);
  check_float "d12" 4.0 (Finite_metric.dist m 1 2);
  check_float "d02" 7.0 (Finite_metric.dist m 0 2);
  check_float "self" 0.0 (Finite_metric.dist m 1 1)

let test_euclidean () =
  let m = Finite_metric.euclidean [| (0.0, 0.0); (3.0, 4.0) |] in
  check_float "3-4-5" 5.0 (Finite_metric.dist m 0 1)

let test_single_point () =
  let m = Finite_metric.single_point () in
  check_int "size" 1 (Finite_metric.size m);
  check_float "d00" 0.0 (Finite_metric.dist m 0 0)

let test_uniform () =
  let m = Finite_metric.uniform 4 ~d:2.5 in
  check_float "d" 2.5 (Finite_metric.dist m 1 3);
  check_float "diag" 0.0 (Finite_metric.dist m 2 2);
  check_float "diameter" 2.5 (Finite_metric.diameter m)

let test_of_matrix_validation () =
  Alcotest.check_raises "asymmetric"
    (Invalid_argument "Finite_metric.of_matrix: asymmetric matrix") (fun () ->
      ignore (Finite_metric.of_matrix [| [| 0.0; 1.0 |]; [| 2.0; 0.0 |] |]));
  Alcotest.check_raises "diagonal"
    (Invalid_argument "Finite_metric.of_matrix: non-zero diagonal") (fun () ->
      ignore (Finite_metric.of_matrix [| [| 1.0 |] |]));
  Alcotest.check_raises "negative"
    (Invalid_argument "Finite_metric.of_matrix: negative distance") (fun () ->
      ignore (Finite_metric.of_matrix [| [| 0.0; -1.0 |]; [| -1.0; 0.0 |] |]));
  Alcotest.check_raises "triangle"
    (Invalid_argument
       "Finite_metric.of_matrix: triangle inequality violated at (0, 1, 2)")
    (fun () ->
      ignore
        (Finite_metric.of_matrix
           [|
             [| 0.0; 10.0; 1.0 |]; [| 10.0; 0.0; 1.0 |]; [| 1.0; 1.0; 0.0 |];
           |]))

let test_dist_bounds () =
  let m = Finite_metric.line [| 0.0; 1.0 |] in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Finite_metric.dist: (0, 2) outside [0, 2)") (fun () ->
      ignore (Finite_metric.dist m 0 2))

let test_nearest () =
  let m = Finite_metric.line [| 0.0; 5.0; 6.0; 20.0 |] in
  Alcotest.(check (option (pair int (float 1e-9))))
    "nearest" (Some (2, 1.0))
    (Finite_metric.nearest m ~from:1 [ 0; 2; 3 ]);
  Alcotest.(check (option (pair int (float 1e-9))))
    "empty" None
    (Finite_metric.nearest m ~from:1 [])

(* ---------- Graph ---------- *)

let test_graph_basics () =
  let g = Graph.create 4 in
  Graph.add_edge g 0 1 1.0;
  Graph.add_edge g 1 2 2.0;
  check_int "edges" 2 (Graph.n_edges g);
  check_int "vertices" 4 (Graph.n_vertices g);
  check_bool "disconnected" false (Graph.is_connected g);
  Graph.add_edge g 2 3 1.0;
  check_bool "connected" true (Graph.is_connected g)

let test_graph_validation () =
  let g = Graph.create 3 in
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_edge: self-loop")
    (fun () -> Graph.add_edge g 1 1 1.0);
  Alcotest.check_raises "negative"
    (Invalid_argument "Graph.add_edge: negative weight") (fun () ->
      Graph.add_edge g 0 1 (-1.0));
  Alcotest.check_raises "range"
    (Invalid_argument "Graph.add_edge: vertex out of range") (fun () ->
      Graph.add_edge g 0 3 1.0)

let test_dijkstra_simple () =
  let g = Graph.create 5 in
  Graph.add_edge g 0 1 1.0;
  Graph.add_edge g 1 2 1.0;
  Graph.add_edge g 0 2 5.0;
  Graph.add_edge g 2 3 1.0;
  let d = Graph.dijkstra g 0 in
  check_float "via path" 2.0 d.(2);
  check_float "onward" 3.0 d.(3);
  check_bool "unreachable" true (d.(4) = infinity)

let test_dijkstra_parallel_edges () =
  let g = Graph.create 2 in
  Graph.add_edge g 0 1 5.0;
  Graph.add_edge g 0 1 2.0;
  let d = Graph.dijkstra g 0 in
  check_float "min edge" 2.0 d.(1)

let test_shortest_path_metric () =
  let g = Graph.ring 5 ~edge_weight:1.0 in
  let m = Graph.shortest_path_metric g in
  check_float "around ring" 2.0 (Finite_metric.dist m 0 2);
  check_float "short way" 1.0 (Finite_metric.dist m 0 4);
  match Finite_metric.check_triangle m with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "shortest-path closure must be a metric"

let test_shortest_path_disconnected () =
  let g = Graph.create 3 in
  Graph.add_edge g 0 1 1.0;
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Graph.shortest_path_metric: graph is disconnected")
    (fun () -> ignore (Graph.shortest_path_metric g))

let test_grid () =
  let g = Graph.grid ~rows:3 ~cols:4 ~edge_weight:1.0 in
  check_int "vertices" 12 (Graph.n_vertices g);
  (* 3*3 horizontal + 2*4 vertical = 17 edges *)
  check_int "edges" 17 (Graph.n_edges g);
  let m = Graph.shortest_path_metric g in
  (* Manhattan distance corner to corner. *)
  check_float "corner" 5.0 (Finite_metric.dist m 0 11)

(* Brute-force Bellman-Ford for cross-checking Dijkstra. *)
let bellman_ford g src =
  let n = Graph.n_vertices g in
  let dist = Array.make n infinity in
  dist.(src) <- 0.0;
  for _ = 1 to n do
    for u = 0 to n - 1 do
      List.iter
        (fun (v, w) ->
          if dist.(u) +. w < dist.(v) then dist.(v) <- dist.(u) +. w)
        (Graph.neighbors g u)
    done
  done;
  dist

let graph_gen =
  QCheck.make
    ~print:(fun (n, edges) ->
      Printf.sprintf "n=%d edges=%s" n
        (String.concat ";"
           (List.map (fun (u, v, w) -> Printf.sprintf "(%d,%d,%.2f)" u v w) edges)))
    QCheck.Gen.(
      let* n = int_range 2 12 in
      let* m = int_range 1 25 in
      let* edges =
        list_repeat m
          (let* u = int_bound (n - 1) in
           let* v = int_bound (n - 1) in
           let* w = float_bound_inclusive 10.0 in
           return (u, v, w +. 0.001))
      in
      return (n, edges))

let prop_dijkstra_matches_bellman_ford =
  QCheck.Test.make ~name:"dijkstra = bellman-ford" ~count:150 graph_gen
    (fun (n, edges) ->
      let g = Graph.create n in
      List.iter (fun (u, v, w) -> if u <> v then Graph.add_edge g u v w) edges;
      let ok = ref true in
      for src = 0 to n - 1 do
        let d1 = Graph.dijkstra g src and d2 = bellman_ford g src in
        for v = 0 to n - 1 do
          if d1.(v) = infinity && d2.(v) = infinity then ()
          else if Float.abs (d1.(v) -. d2.(v)) > 1e-6 then ok := false
        done
      done;
      !ok)

(* ---------- Metric_gen ---------- *)

let gen_metric_cases =
  [
    ("random_line", fun rng -> Metric_gen.random_line rng ~n:12 ~length:50.0);
    ( "random_euclidean",
      fun rng -> Metric_gen.random_euclidean rng ~n:12 ~side:50.0 );
    ( "clustered",
      fun rng ->
        Metric_gen.clustered_euclidean rng ~clusters:3 ~per_cluster:4 ~side:50.0
          ~spread:1.0 );
    ( "graph",
      fun rng -> Metric_gen.random_graph_metric rng ~n:12 ~extra_edges:5 ~max_weight:3.0
    );
    ( "perturbed uniform",
      fun rng -> Metric_gen.perturbed_uniform rng ~n:12 ~base:5.0 ~jitter:4.0 );
  ]

let prop_generators_metric =
  List.map
    (fun (name, gen) ->
      QCheck.Test.make
        ~name:(name ^ " satisfies triangle inequality")
        ~count:25 QCheck.(small_int)
        (fun seed ->
          let m = gen (Splitmix.of_int seed) in
          match Finite_metric.check_triangle m with
          | Ok () -> true
          | Error _ -> false))
    gen_metric_cases

let test_perturbed_validation () =
  let rng = Splitmix.of_int 1 in
  Alcotest.check_raises "jitter > base"
    (Invalid_argument "Metric_gen.perturbed_uniform: jitter must not exceed base")
    (fun () ->
      ignore (Metric_gen.perturbed_uniform rng ~n:4 ~base:1.0 ~jitter:2.0))

let () =
  Alcotest.run "metric"
    [
      ( "finite_metric",
        [
          Alcotest.test_case "line" `Quick test_line;
          Alcotest.test_case "euclidean" `Quick test_euclidean;
          Alcotest.test_case "single point" `Quick test_single_point;
          Alcotest.test_case "uniform" `Quick test_uniform;
          Alcotest.test_case "of_matrix validation" `Quick test_of_matrix_validation;
          Alcotest.test_case "dist bounds" `Quick test_dist_bounds;
          Alcotest.test_case "nearest" `Quick test_nearest;
        ] );
      ( "graph",
        [
          Alcotest.test_case "basics" `Quick test_graph_basics;
          Alcotest.test_case "validation" `Quick test_graph_validation;
          Alcotest.test_case "dijkstra" `Quick test_dijkstra_simple;
          Alcotest.test_case "parallel edges" `Quick test_dijkstra_parallel_edges;
          Alcotest.test_case "shortest-path metric" `Quick test_shortest_path_metric;
          Alcotest.test_case "disconnected" `Quick test_shortest_path_disconnected;
          Alcotest.test_case "grid" `Quick test_grid;
          QCheck_alcotest.to_alcotest prop_dijkstra_matches_bellman_ford;
        ] );
      ( "metric_gen",
        Alcotest.test_case "perturbed validation" `Quick test_perturbed_validation
        :: List.map QCheck_alcotest.to_alcotest prop_generators_metric );
    ]
