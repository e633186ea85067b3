(* The end-to-end benchmark's own checks: a few ops of every workload
   through the benchmark's op, check and guard functions, the input
   generator's determinism, and agreement between BENCHMARK.json and the
   metrics the harness reports. *)

open E2e_bench
module Json = Ospack_json.Json

let ops = 5

(* per workload: the op case and the determinism case, sharing one
   seed-1 set-up *)
let cases (module W : Workloads.S) =
  let st = lazy (W.setup ~seed:1) in
  let ops_case () =
    let st = Lazy.force st in
    let tracer = Span.create ~on:true in
    for i = 0 to ops - 1 do
      let input = W.input st ~stream:0 i in
      (* odd ops take the traced step-by-step path, which must also agree
         with the public call *)
      let traced = i mod 2 = 1 in
      W.prepare st input;
      let o = if traced then W.run_traced st tracer input else W.run st input in
      if traced then ignore (W.counters st input o);
      let verdict =
        match W.check st input o with
        | Ok () when traced -> W.guard st input o
        | v -> v
      in
      W.cleanup st o;
      match verdict with
      | Ok () -> ()
      | Error e -> Alcotest.failf "op %d (%s): %s" i (W.describe st input) e
    done
  in
  let determinism_case () =
    let inputs st = List.init ops (fun i -> W.describe st (W.input st ~stream:0 i)) in
    let first = inputs (Lazy.force st) in
    Alcotest.(check (list string)) "same seed, same inputs" first
      (inputs (W.setup ~seed:1));
    Alcotest.(check bool) "another seed, other inputs" true
      (first <> inputs (W.setup ~seed:2))
  in
  ( Alcotest.test_case W.name `Quick ops_case,
    Alcotest.test_case W.name `Quick determinism_case )

let names key j =
  match Option.bind (Json.member key j) Json.to_list with
  | None -> Alcotest.failf "BENCHMARK.json: no %s list" key
  | Some items ->
      List.map
        (fun item ->
          List.filter_map
            (fun k -> Option.bind (Json.member k item) Json.get_string)
            [ "name"; "unit"; "better" ])
        items

let benchmark_json () =
  let ic = open_in_bin "../../BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.of_string text with
  | Ok j -> j
  | Error e -> Alcotest.failf "BENCHMARK.json: %s" e

let manifest_case =
  Alcotest.test_case "BENCHMARK.json lists what the harness reports" `Quick
    (fun () ->
      let j = benchmark_json () in
      let strings = Alcotest.(list (list string)) in
      Alcotest.check strings "workloads"
        (List.map (fun (module W : Workloads.S) -> [ W.name ]) Workloads.all)
        (List.map (fun l -> [ List.hd l ]) (names "workloads" j));
      Alcotest.check strings "end_to_end"
        (List.map (fun (n, u) -> [ n; u ]) Harness.end_to_end)
        (List.map (fun l -> [ List.nth l 0; List.nth l 1 ]) (names "end_to_end" j));
      Alcotest.check strings "per_layer"
        (List.map
           (fun l -> Harness.[ l.l_name; l.l_unit; l.l_better ])
           Harness.per_layer)
        (names "per_layer" j))

let () =
  let cases = List.map cases Workloads.all in
  Alcotest.run "e2e"
    [
      ("ops", List.map fst cases);
      ("determinism", List.map snd cases);
      ("manifest", [ manifest_case ]);
    ]
