(* The observability substrate: deterministic spans, counters, and
   histograms over the virtual clock — the measurement layer behind the
   paper's evaluation (§5). *)

module Obs = Ospack_obs.Obs
module Json = Ospack_json.Json
module Vfs = Ospack_vfs.Vfs
module Installer = Ospack_store.Installer
module Concretizer = Ospack_concretize.Concretizer
module Repository = Ospack_package.Repository
module Compilers = Ospack_config.Compilers
module Build_model = Ospack_package.Build_model
open Ospack_package.Package

let near = Alcotest.float 1e-9

let span_nesting () =
  let obs = Obs.create () in
  Obs.span obs "outer" (fun () ->
      Obs.advance obs 1.0;
      Obs.span obs "inner" (fun () -> Obs.advance obs 2.0);
      Obs.span obs "inner" (fun () -> Obs.advance obs 3.0));
  (try Obs.span obs "boom" (fun () -> failwith "x") with Failure _ -> ());
  let rows = Obs.phase_rows obs in
  Alcotest.(check (list string))
    "first-occurrence order"
    [ "outer"; "inner"; "boom" ]
    (List.map (fun r -> r.Obs.ph_name) rows);
  let row name = List.find (fun r -> r.Obs.ph_name = name) rows in
  Alcotest.(check int) "outer count" 1 (row "outer").Obs.ph_count;
  Alcotest.(check int) "inner count" 2 (row "inner").Obs.ph_count;
  Alcotest.(check int) "raising span still closed" 1 (row "boom").Obs.ph_count;
  (* inner spans cover their advances plus one epsilon tick per enclosed
     event; outer additionally covers its own 1.0 s advance *)
  Alcotest.(check bool) "inner total covers charges" true
    (let t = (row "inner").Obs.ph_total in
     t > 5.0 && t < 5.001);
  Alcotest.(check bool) "outer total covers everything" true
    (let t = (row "outer").Obs.ph_total in
     t > 6.0 && t < 6.001);
  (* self time excludes children exactly *)
  Alcotest.check near "outer self = total - children"
    ((row "outer").Obs.ph_total -. (row "inner").Obs.ph_total)
    (row "outer").Obs.ph_self;
  Alcotest.check near "leaf self = leaf total" (row "inner").Obs.ph_total
    (row "inner").Obs.ph_self

let counters_and_histograms () =
  let obs = Obs.create () in
  Obs.span obs "a" (fun () ->
      Obs.count obs "z.ops" 2;
      Obs.span obs "b" (fun () ->
          Obs.count obs "z.ops" 3;
          Obs.count obs "a.ops" 1));
  Alcotest.(check int) "aggregated across child spans" 5
    (Obs.counter obs "z.ops");
  Alcotest.(check int) "unset counter" 0 (Obs.counter obs "nope");
  Alcotest.(check (list (pair string int)))
    "counters sorted by name"
    [ ("a.ops", 1); ("z.ops", 5) ]
    (Obs.counters obs);
  Obs.observe obs "h" 1.0;
  Obs.observe obs "h" 3.0;
  (match Obs.histograms obs with
  | [ ("h", s) ] ->
      Alcotest.(check int) "h count" 2 s.Obs.h_count;
      Alcotest.check near "h min" 1.0 s.Obs.h_min;
      Alcotest.check near "h max" 3.0 s.Obs.h_max;
      Alcotest.check near "h sum" 4.0 s.Obs.h_sum
  | other -> Alcotest.failf "unexpected histograms (%d)" (List.length other))

(* the disabled sink must be free: no recording, no allocation, so the
   instrumentation can stay unconditionally in every hot path *)
let disabled_is_free () =
  let obs = Obs.disabled in
  let nothing = fun () -> () in
  Alcotest.(check bool) "disabled" false (Obs.enabled obs);
  (* warm up any one-time allocation *)
  for _ = 1 to 100 do
    Obs.span obs "x" nothing;
    Obs.count obs "c" 1;
    Obs.advance obs 0.25;
    Obs.annotate obs "note";
    Obs.observe obs "h" 0.25
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Obs.span obs "x" nothing;
    Obs.count obs "c" 1;
    Obs.advance obs 0.25;
    Obs.annotate obs "note";
    Obs.observe obs "h" 0.25
  done;
  let dw = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "zero allocation (%.0f minor words for 50k ops)" dw)
    true (dw < 256.0);
  Alcotest.check near "clock stays at zero" 0.0 (Obs.now obs);
  Alcotest.(check (list (pair string int))) "no counters" [] (Obs.counters obs);
  Alcotest.(check string) "empty timings table" "(no spans recorded)\n"
    (Obs.timings_table obs)

(* --- golden Chrome trace for a 3-package install ------------------- *)

let tiny_model =
  Build_model.make ~source_files:1 ~headers_per_compile:0 ~configure_checks:1
    ~link_steps:1 ~compile_seconds:0.1 ~install_files:1 ()

let chain_repo () =
  let pkg name deps =
    make_pkg name
      ([
         version "1.0";
         build_model tiny_model;
         install (fun ctx ->
             [
               configure [ "--prefix=" ^ ctx.rc_prefix ];
               make [];
               make [ "install" ];
             ]);
       ]
      @ List.map (fun d -> depends_on d) deps)
  in
  Repository.create
    [ pkg "liba" []; pkg "midb" [ "liba" ]; pkg "appc" [ "midb" ] ]

let render_chain_trace () =
  let obs = Obs.create () in
  let repo = chain_repo () in
  let compilers = Compilers.create [ Compilers.toolchain "gcc" "4.9.2" ] in
  let cctx = Concretizer.make_ctx ~obs ~compilers repo in
  let spec =
    match
      Obs.span obs ~cat:"concretize" "concretize" (fun () ->
          Concretizer.concretize_string cctx "appc")
    with
    | Ok c -> c
    | Error e -> Alcotest.failf "concretize: %s" e
  in
  let inst = Installer.create ~obs ~vfs:(Vfs.create ()) ~repo ~compilers () in
  (match Installer.install inst spec with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "install: %s" e);
  Json.to_string ~indent:2 (Obs.to_chrome_trace obs)

let golden_expected =
  {golden|{
  "traceEvents": [
    {
      "name": "concretize",
      "cat": "concretize",
      "ph": "B",
      "ts": 1.0,
      "pid": 1,
      "tid": 1
    },
    {
      "name": "concretize.iteration",
      "cat": "concretize",
      "ph": "B",
      "ts": 2.0,
      "pid": 1,
      "tid": 1,
      "args": {
        "iteration": "1"
      }
    },
    {
      "name": "concretize.iteration",
      "cat": "concretize",
      "ph": "E",
      "ts": 3.0,
      "pid": 1,
      "tid": 1
    },
    {
      "name": "concretize.iteration",
      "cat": "concretize",
      "ph": "B",
      "ts": 4.0,
      "pid": 1,
      "tid": 1,
      "args": {
        "iteration": "2"
      }
    },
    {
      "name": "concretize.iteration",
      "cat": "concretize",
      "ph": "E",
      "ts": 5.0,
      "pid": 1,
      "tid": 1
    },
    {
      "name": "concretize.finalize",
      "cat": "concretize",
      "ph": "B",
      "ts": 5.999999999999999,
      "pid": 1,
      "tid": 1
    },
    {
      "name": "concretize.finalize",
      "cat": "concretize",
      "ph": "E",
      "ts": 6.999999999999999,
      "pid": 1,
      "tid": 1
    },
    {
      "name": "concretize",
      "cat": "concretize",
      "ph": "E",
      "ts": 8.0,
      "pid": 1,
      "tid": 1
    },
    {
      "name": "schedule",
      "cat": "sched",
      "ph": "B",
      "ts": 9.0,
      "pid": 1,
      "tid": 1,
      "args": {
        "jobs": "1",
        "nodes": "3"
      }
    },
    {
      "name": "worker 0",
      "cat": "sched",
      "ph": "B",
      "ts": 10.0,
      "pid": 1,
      "tid": 1,
      "args": {
        "node": "liba",
        "vstart": "0.000000"
      }
    },
    {
      "name": "install liba",
      "cat": "install",
      "ph": "B",
      "ts": 11.000000000000002,
      "pid": 1,
      "tid": 1,
      "args": {
        "node": "liba",
        "hash": "05bcb082"
      }
    },
    {
      "name": "build.stage",
      "cat": "build",
      "ph": "B",
      "ts": 12.000000000000002,
      "pid": 1,
      "tid": 1
    },
    {
      "name": "build.stage",
      "cat": "build",
      "ph": "E",
      "ts": 13.000000000000002,
      "pid": 1,
      "tid": 1
    },
    {
      "name": "build.configure",
      "cat": "build",
      "ph": "B",
      "ts": 14.000000000000004,
      "pid": 1,
      "tid": 1
    },
    {
      "name": "build.configure",
      "cat": "build",
      "ph": "E",
      "ts": 25215.0,
      "pid": 1,
      "tid": 1
    },
    {
      "name": "build.compile",
      "cat": "build",
      "ph": "B",
      "ts": 25216.000000000004,
      "pid": 1,
      "tid": 1
    },
    {
      "name": "build.compile",
      "cat": "build",
      "ph": "E",
      "ts": 129217.0,
      "pid": 1,
      "tid": 1
    },
    {
      "name": "build.link",
      "cat": "build",
      "ph": "B",
      "ts": 129218.0,
      "pid": 1,
      "tid": 1
    },
    {
      "name": "build.link",
      "cat": "build",
      "ph": "E",
      "ts": 534019.0,
      "pid": 1,
      "tid": 1
    },
    {
      "name": "build.install",
      "cat": "build",
      "ph": "B",
      "ts": 534020.0,
      "pid": 1,
      "tid": 1
    },
    {
      "name": "build.install",
      "cat": "build",
      "ph": "E",
      "ts": 534421.0,
      "pid": 1,
      "tid": 1
    },
    {
      "name": "install liba",
      "cat": "install",
      "ph": "E",
      "ts": 534422.0000000001,
      "pid": 1,
      "tid": 1
    },
    {
      "name": "worker 0",
      "cat": "sched",
      "ph": "E",
      "ts": 534423.0000000001,
      "pid": 1,
      "tid": 1
    },
    {
      "name": "worker 0",
      "cat": "sched",
      "ph": "B",
      "ts": 534424.0000000001,
      "pid": 1,
      "tid": 1,
      "args": {
        "node": "midb",
        "vstart": "0.534400"
      }
    },
    {
      "name": "install midb",
      "cat": "install",
      "ph": "B",
      "ts": 534425.0000000001,
      "pid": 1,
      "tid": 1,
      "args": {
        "node": "midb",
        "hash": "931c8419"
      }
    },
    {
      "name": "build.stage",
      "cat": "build",
      "ph": "B",
      "ts": 534426.0000000002,
      "pid": 1,
      "tid": 1
    },
    {
      "name": "build.stage",
      "cat": "build",
      "ph": "E",
      "ts": 534427.0000000002,
      "pid": 1,
      "tid": 1
    },
    {
      "name": "build.configure",
      "cat": "build",
      "ph": "B",
      "ts": 534428.0000000002,
      "pid": 1,
      "tid": 1
    },
    {
      "name": "build.configure",
      "cat": "build",
      "ph": "E",
      "ts": 559629.0000000002,
      "pid": 1,
      "tid": 1
    },
    {
      "name": "build.compile",
      "cat": "build",
      "ph": "B",
      "ts": 559630.0000000003,
      "pid": 1,
      "tid": 1
    },
    {
      "name": "build.compile",
      "cat": "build",
      "ph": "E",
      "ts": 663631.0000000003,
      "pid": 1,
      "tid": 1
    },
    {
      "name": "build.link",
      "cat": "build",
      "ph": "B",
      "ts": 663632.0000000003,
      "pid": 1,
      "tid": 1
    },
    {
      "name": "build.link",
      "cat": "build",
      "ph": "E",
      "ts": 1068433.0000000002,
      "pid": 1,
      "tid": 1
    },
    {
      "name": "build.install",
      "cat": "build",
      "ph": "B",
      "ts": 1068434.0,
      "pid": 1,
      "tid": 1
    },
    {
      "name": "build.install",
      "cat": "build",
      "ph": "E",
      "ts": 1068835.0,
      "pid": 1,
      "tid": 1
    },
    {
      "name": "install midb",
      "cat": "install",
      "ph": "E",
      "ts": 1068836.0,
      "pid": 1,
      "tid": 1
    },
    {
      "name": "worker 0",
      "cat": "sched",
      "ph": "E",
      "ts": 1068836.9999999998,
      "pid": 1,
      "tid": 1
    },
    {
      "name": "worker 0",
      "cat": "sched",
      "ph": "B",
      "ts": 1068837.9999999998,
      "pid": 1,
      "tid": 1,
      "args": {
        "node": "appc",
        "vstart": "1.068800"
      }
    },
    {
      "name": "install appc",
      "cat": "install",
      "ph": "B",
      "ts": 1068838.9999999995,
      "pid": 1,
      "tid": 1,
      "args": {
        "node": "appc",
        "hash": "d9a7756a"
      }
    },
    {
      "name": "build.stage",
      "cat": "build",
      "ph": "B",
      "ts": 1068839.9999999995,
      "pid": 1,
      "tid": 1
    },
    {
      "name": "build.stage",
      "cat": "build",
      "ph": "E",
      "ts": 1068840.9999999995,
      "pid": 1,
      "tid": 1
    },
    {
      "name": "build.configure",
      "cat": "build",
      "ph": "B",
      "ts": 1068841.9999999993,
      "pid": 1,
      "tid": 1
    },
    {
      "name": "build.configure",
      "cat": "build",
      "ph": "E",
      "ts": 1094042.9999999995,
      "pid": 1,
      "tid": 1
    },
    {
      "name": "build.compile",
      "cat": "build",
      "ph": "B",
      "ts": 1094043.9999999993,
      "pid": 1,
      "tid": 1
    },
    {
      "name": "build.compile",
      "cat": "build",
      "ph": "E",
      "ts": 1198044.9999999993,
      "pid": 1,
      "tid": 1
    },
    {
      "name": "build.link",
      "cat": "build",
      "ph": "B",
      "ts": 1198045.9999999993,
      "pid": 1,
      "tid": 1
    },
    {
      "name": "build.link",
      "cat": "build",
      "ph": "E",
      "ts": 1602846.999999999,
      "pid": 1,
      "tid": 1
    },
    {
      "name": "build.install",
      "cat": "build",
      "ph": "B",
      "ts": 1602847.9999999988,
      "pid": 1,
      "tid": 1
    },
    {
      "name": "build.install",
      "cat": "build",
      "ph": "E",
      "ts": 1603248.9999999988,
      "pid": 1,
      "tid": 1
    },
    {
      "name": "install appc",
      "cat": "install",
      "ph": "E",
      "ts": 1603249.9999999988,
      "pid": 1,
      "tid": 1
    },
    {
      "name": "worker 0",
      "cat": "sched",
      "ph": "E",
      "ts": 1603250.9999999986,
      "pid": 1,
      "tid": 1
    },
    {
      "name": "schedule",
      "cat": "sched",
      "ph": "E",
      "ts": 1603251.9999999986,
      "pid": 1,
      "tid": 1
    }
  ],
  "displayTimeUnit": "ms",
  "ospackCounters": {
    "build.rpath_rewrites": 7,
    "concretize.iterations": 2,
    "fs.meta_ops": 36,
    "install.built": 3,
    "sched.dispatches": 3,
    "wrapper.invocations": 9
  },
  "ospackHistograms": {
    "build.node_seconds": {
      "count": 3,
      "min": 0.5344,
      "max": 0.5344,
      "sum": 1.6032
    },
    "sched.idle_seconds": {
      "count": 3,
      "min": 0.0,
      "max": 0.0,
      "sum": 0.0
    },
    "sched.ready_queue": {
      "count": 3,
      "min": 1.0,
      "max": 1.0,
      "sum": 3.0
    }
  }
}|golden}

let golden_chrome_trace () =
  let actual = render_chain_trace () in
  if actual <> golden_expected then begin
    let oc = open_out "obs_trace.actual" in
    output_string oc actual;
    close_out oc;
    Alcotest.failf
      "golden trace mismatch (%d bytes expected, %d actual; actual written \
       to obs_trace.actual)"
      (String.length golden_expected)
      (String.length actual)
  end

let trace_deterministic () =
  Alcotest.(check string)
    "two identical runs, byte-identical traces" (render_chain_trace ())
    (render_chain_trace ())

let () =
  Alcotest.run "obs"
    [
      ( "obs",
        [
          Alcotest.test_case "span nesting and ordering" `Quick span_nesting;
          Alcotest.test_case "counters and histograms" `Quick
            counters_and_histograms;
          Alcotest.test_case "disabled sink is free" `Quick disabled_is_free;
          Alcotest.test_case "golden Chrome trace (3-package chain)" `Quick
            golden_chrome_trace;
          Alcotest.test_case "trace determinism" `Quick trace_deterministic;
        ] );
    ]
