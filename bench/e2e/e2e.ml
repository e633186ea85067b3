(* e2e.exe --workload W --seed N --seconds S --trace 0|1 [--trace-out FILE]

   Runs one workload of the end-to-end benchmark, prints every metric by
   name with its unit and sample count, and ends with one JSON line:
   {"correct", "attempted", "failed", "metrics"}. Untraced runs report
   the end-to-end metrics, traced runs the per-layer ones (and write the
   spans as Chrome trace events to FILE when given). Exit code 0 iff
   every op passed its check. *)

open E2e_bench

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 25.0 in
  let trace = ref 0 and trace_out = ref "" in
  let names = List.map (fun (module W : Workloads.S) -> W.name) Workloads.all in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" names);
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S length of the timed loop (default 25)");
      ("--trace", Arg.Set_int trace, "0|1 report per-layer metrics from spans");
      ( "--trace-out",
        Arg.Set_string trace_out,
        "FILE write the spans as Chrome trace events" );
    ]
    (fun arg -> raise (Arg.Bad ("unexpected argument " ^ arg)))
    "e2e.exe --workload W [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]";
  match Workloads.find !workload with
  | None ->
      Printf.eprintf "unknown workload %S (one of %s)\n" !workload
        (String.concat ", " names);
      exit 2
  | Some w ->
      let out = if !trace_out = "" then None else Some (open_out !trace_out) in
      let r = Harness.run w ~seed:!seed ~seconds:!seconds ~trace:(!trace <> 0) in
      Option.iter
        (fun oc ->
          output_string oc (Ospack_json.Json.to_string (Span.to_chrome r.Harness.spans));
          close_out oc)
        out;
      print_string r.Harness.report;
      print_endline (Harness.result_line r);
      exit (if r.Harness.failed = 0 then 0 else 1)
