(* The ospack command-line interface: the spack commands of the paper over
   an in-memory context (fresh per process — installs land in the virtual
   filesystem and are reported, not persisted). *)

open Cmdliner
module Concrete = Ospack_spec.Concrete
module Database = Ospack_store.Database
module Installer = Ospack_store.Installer
module Torture = Ospack_store.Torture
module Obs = Ospack_obs.Obs
module Profile = Ospack_obs.Profile
module Json = Ospack_json.Json
module Backends = Ospack_concretize.Backends
module Cerror = Ospack_concretize.Cerror
module CI = Ospack_concretize.Concretizer_intf

(* a real-filesystem site configuration file, layered over the defaults
   when present (e.g. providers.mpi, compiler_order, externals entries) *)
let config_from_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let content = really_input_string ic n in
  close_in ic;
  match Ospack_config.Config.parse content with
  | Ok cfg ->
      Ok
        (Ospack_config.Config.layer
           [ cfg; Ospack_repo.Universe.default_config ])
  | Error e -> Error (Printf.sprintf "%s: %s" path e)

let make_ctx ?config_file ?obs () =
  match config_file with
  | None ->
      Ok (Ospack.Context.create ~cache_root:"/ospack/buildcache" ?obs ())
  | Some path ->
      Result.map
        (fun config ->
          Ospack.Context.create ~config ~cache_root:"/ospack/buildcache" ?obs
            ())
        (config_from_file path)

let ctx = lazy (Ospack.Context.create ~cache_root:"/ospack/buildcache" ())

(* The in-memory context is fresh per process, so a --ccache FILE flag
   bridges the concretization cache across invocations: import the
   serialized cache (if the file exists) before the command, export it
   after. A stale or corrupted file is invalidated on import by the
   fingerprint check, never trusted. *)
let read_ccache_file = function
  | None -> None
  | Some path ->
      if Sys.file_exists path then begin
        let ic = open_in path in
        let content = really_input_string ic (in_channel_length ic) in
        close_in ic;
        Some content
      end
      else None

let write_ccache_file ctx = function
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (Ospack.Context.export_ccache ctx);
      output_char oc '\n';
      close_out oc

let ccache_arg =
  Arg.(
    value & opt (some string) None
    & info [ "ccache" ] ~docv:"FILE"
        ~doc:
          "Persist the concretization cache to $(docv) on the real \
           filesystem: imported (and fingerprint-validated) before the \
           command, exported after. Repeating a query with the same \
           $(docv) is a warm-cache run — byte-identical output, no \
           re-solving.")

let report_error e =
  Format.eprintf "==> Error: %s@." e;
  1

let backend_arg =
  Arg.(
    value
    & opt
        (enum [ ("greedy", Backends.Greedy); ("clauses", Backends.Clauses) ])
        Backends.Greedy
    & info [ "concretizer" ] ~docv:"BACKEND"
        ~doc:
          "Concretizer backend: $(b,greedy) (the paper's fixed point, the \
           default) or $(b,clauses) (the complete clause solver — agrees \
           with greedy whenever greedy succeeds, solves specs greedy \
           cannot, and explains true conflicts with an unsat core).")

let spec_arg =
  Arg.(
    non_empty & pos_all string []
    & info [] ~docv:"SPEC" ~doc:"Package spec (paper Fig. 3 syntax).")

let join_spec parts = String.concat " " parts

let print_outcomes outcomes =
  List.iter
    (fun (o : Installer.outcome) ->
      let r = o.Installer.o_record in
      Format.printf "%s %s@."
        (if o.Installer.o_reused then "[reused]   "
         else if o.Installer.o_cached then "[cached]   "
         else if r.Database.r_external then "[external] "
         else "[installed]")
        (Printf.sprintf "%s/%s -> %s"
           (Concrete.node_to_string (Concrete.root_node r.Database.r_spec))
           r.Database.r_hash r.Database.r_prefix))
    outcomes;
  Format.printf "==> %s@."
    (Installer.summary_to_string (Installer.summary_of_outcomes outcomes))

let write_trace obs path =
  let oc = open_out path in
  output_string oc (Json.to_string ~indent:2 (Obs.to_chrome_trace obs));
  output_char oc '\n';
  close_out oc

let write_string_file path content =
  let oc = open_out path in
  output_string oc content;
  close_out oc

let events_arg =
  Arg.(
    value & opt (some string) None
    & info [ "events" ] ~docv:"FILE"
        ~doc:
          "Write the session as a deterministic JSONL structured-event \
           log: one JSON object per line (meta header, then \
           span_begin/span_end/instant events on the virtual clock, then \
           counter and histogram summaries). Byte-identical across \
           identical runs; validated by $(b,spack trace-validate).")

let install_cmd =
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Install with $(docv) simulated parallel workers: independent \
             DAG nodes build concurrently on the virtual clock and the \
             makespan is reported against the serialized time. The \
             schedule is deterministic — every -j level produces the \
             same store and index.")
  in
  let index_out =
    Arg.(
      value & opt (some string) None
      & info [ "index-out" ] ~docv:"FILE"
          ~doc:
            "After the install, write the store's database index (every \
             record, as one JSON document) to $(docv) on the real filesystem — \
             lets CI compare store state across runs and -j levels.")
  in
  let trace =
    Arg.(
      value & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record a Chrome trace-event file (chrome://tracing) of the \
             install: nested spans for concretization iterations and \
             per-node stage/configure/compile/link/install phases, over \
             the deterministic virtual clock.")
  in
  let timings =
    Arg.(
      value & flag
      & info [ "timings" ]
          ~doc:"Print a per-phase timing table after the install.")
  in
  let fresh =
    Arg.(
      value & flag
      & info [ "fresh" ]
          ~doc:
            "Always concretize against current packages and preferences: \
             skip both the installed-spec reuse (§3.2.3) and the \
             concretization cache.")
  in
  let run jobs index_out trace events timings fresh backend parts =
    let recording = trace <> None || events <> None || timings in
    let obs = if recording then Obs.create () else Obs.disabled in
    let ctx =
      if recording || backend <> Backends.Greedy then
        Ospack.Context.create ~cache_root:"/ospack/buildcache" ~obs ~backend
          ()
      else Lazy.force ctx
    in
    let write_index path =
      let db = Installer.database ctx.Ospack.Context.installer in
      let oc = open_out path in
      output_string oc (Json.to_string ~indent:2 (Database.to_json db));
      output_char oc '\n';
      close_out oc
    in
    match Ospack.install ~fresh ~jobs ctx (join_spec parts) with
    | Ok report ->
        Format.printf "==> concretized:@.%s@."
          (Concrete.tree_string report.Ospack.Commands.ir_spec);
        print_outcomes report.Ospack.Commands.ir_outcomes;
        (match report.Ospack.Commands.ir_parallel with
        | Some p ->
            Format.printf "==> %s@." (Installer.parallel_summary_to_string p)
        | None -> ());
        if timings then print_string (Obs.timings_table obs);
        (match trace with
        | None -> ()
        | Some path ->
            write_trace obs path;
            Format.printf "==> trace written to %s@." path);
        (match events with
        | None -> ()
        | Some path ->
            write_string_file path (Obs.to_jsonl obs);
            Format.printf "==> events written to %s@." path);
        Option.iter write_index index_out;
        0
    | Error e ->
        (* the index still reflects every node that completed *)
        Option.iter write_index index_out;
        report_error e
  in
  Cmd.v
    (Cmd.info "install" ~doc:"Concretize and install a spec.")
    Term.(
      const run $ jobs $ index_out $ trace $ events_arg $ timings
      $ fresh $ backend_arg $ spec_arg)

let profile_cmd =
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Profile the schedule at $(docv) simulated workers (default \
             1: the topological install order).")
  in
  let width =
    Arg.(
      value & opt int 64
      & info [ "width" ] ~docv:"COLS"
          ~doc:"Timeline width in buckets (default 64).")
  in
  let fresh =
    Arg.(
      value & flag
      & info [ "fresh" ]
          ~doc:
            "Concretize from scratch, bypassing the concretization cache.")
  in
  let run jobs width events fresh backend parts =
    if jobs < 1 then report_error "profile: jobs must be >= 1"
    else
      let obs = Obs.create () in
      let ctx =
        Ospack.Context.create ~cache_root:"/ospack/buildcache" ~obs ~backend
          ()
      in
      match Ospack.profile ~fresh ~jobs ctx (join_spec parts) with
      | Error e -> report_error e
      | Ok r ->
          let prof = r.Ospack.Commands.pf_profile in
          Format.printf "==> concretized:@.%s@."
            (Concrete.tree_string r.Ospack.Commands.pf_spec);
          (* the concretizer's side of the profile: greedy iteration
             counts, or the clause solver's search statistics *)
          Format.printf "==> concretize profile: iterations=%d decisions=%d@."
            (Obs.counter obs "concretize.iterations")
            (Obs.counter obs "concretize.decisions");
          if
            List.exists
              (fun c -> Obs.counter obs c > 0)
              [
                "solver.decisions"; "solver.propagations"; "solver.conflicts";
                "solver.restarts";
              ]
          then
            Format.printf
              "==> solver profile: decisions=%d propagations=%d \
               conflicts=%d restarts=%d@."
              (Obs.counter obs "solver.decisions")
              (Obs.counter obs "solver.propagations")
              (Obs.counter obs "solver.conflicts")
              (Obs.counter obs "solver.restarts");
          print_string (Profile.summary_to_string prof);
          print_string (Profile.node_table prof);
          print_string (Profile.worker_table prof);
          print_string (Profile.timeline ~width prof);
          (match events with
          | None -> ()
          | Some path ->
              write_string_file path (Obs.to_jsonl obs ^ Profile.to_jsonl prof);
              Format.printf "==> events written to %s@." path);
          0
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Install a spec on the virtual-time pool and analyze the \
          schedule's critical path: the makespan lower bound no worker \
          count can beat, per-node slack (0 on critical nodes), \
          per-worker utilization, a Gantt-style timeline, and the \
          CP-efficiency ratio. With --events, also write the JSONL \
          structured-event log including the profile.* event lines.")
    Term.(
      const run $ jobs $ width $ events_arg $ fresh $ backend_arg $ spec_arg)

let spec_cmd =
  let explain =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:"Also print the policy decisions concretization took.")
  in
  let fresh =
    Arg.(
      value & flag
      & info [ "fresh" ]
          ~doc:
            "Concretize from scratch, bypassing the concretization cache \
             (the result is byte-identical to a warm run — this flag \
             exists to prove it).")
  in
  let reuse =
    Arg.(
      value & flag
      & info [ "reuse" ]
          ~doc:
            "Prefer an already-installed concrete spec satisfying the \
             query over re-concretizing (store-aware reuse). Only \
             meaningful inside a session with installs (e.g. spack \
             script); a fresh process has an empty store.")
  in
  let run explain fresh reuse ccache backend parts =
    let ctx =
      match (ccache, backend) with
      | None, Backends.Greedy -> Lazy.force ctx
      | _ ->
          Ospack.Context.create ~cache_root:"/ospack/buildcache"
            ?ccache_json:(read_ccache_file ccache) ~backend ()
    in
    let code =
      if explain then (
        match Ospack.spec_explain ctx (join_spec parts) with
        | Ok (c, decisions) ->
            Format.printf "%s@." (Concrete.tree_string c);
            List.iter (fun d -> Format.printf "  because: %s@." d) decisions;
            0
        | Error e -> report_error e)
      else
        match Ospack.spec ~fresh ~reuse ctx (join_spec parts) with
        | Ok c ->
            Format.printf "%s@." (Concrete.tree_string c);
            0
        | Error e -> report_error e
    in
    if code = 0 then write_ccache_file ctx ccache;
    code
  in
  Cmd.v
    (Cmd.info "spec" ~doc:"Show the concretized spec without installing.")
    Term.(
      const run $ explain $ fresh $ reuse $ ccache_arg $ backend_arg
      $ spec_arg)

(* `spack solve` — run the selected backend through its full interface:
   the concrete tree (or the conflict explanation) plus solver statistics.
   Output is deterministic, so repeated runs compare byte-identical. *)
let solve_cmd =
  let run backend parts =
    let ctx =
      Ospack.Context.create ~cache_root:"/ospack/buildcache" ~backend ()
    in
    match Ospack.solve ctx (join_spec parts) with
    | Error e -> report_error e
    | Ok (name, outcome) -> (
        let stats_line = CI.stats_to_string outcome.CI.oc_stats in
        match outcome.CI.oc_result with
        | Ok c ->
            Format.printf "==> %s backend solved %s@." name (join_spec parts);
            print_string (Concrete.tree_string c);
            Format.printf "==> solver stats: %s@." stats_line;
            0
        | Error e ->
            Format.printf "==> %s backend: unsatisfiable %s@." name
              (join_spec parts);
            Format.printf "==> Error: %s@." (Cerror.to_string e);
            (match Backends.explanation backend outcome with
            | Some expl ->
                Format.printf "%s@." (Cerror.explain_to_string expl)
            | None -> ());
            Format.printf "==> solver stats: %s@." stats_line;
            1)
  in
  Cmd.v
    (Cmd.info "solve"
       ~doc:
         "Concretize with the selected backend and report its decisions, \
          propagations, and conflicts; on unsatisfiable input, explain \
          why with an unsat core (clauses) or the blocked decision path \
          (greedy).")
    Term.(const run $ backend_arg $ spec_arg)

let graph_cmd =
  let dot =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz format.")
  in
  let run dot parts =
    let ctx = Lazy.force ctx in
    let result =
      if dot then Ospack.graph_dot ctx (join_spec parts)
      else Ospack.graph_tree ctx (join_spec parts)
    in
    match result with
    | Ok text ->
        print_string text;
        0
    | Error e -> report_error e
  in
  Cmd.v
    (Cmd.info "graph" ~doc:"Show the dependency graph of a spec.")
    Term.(const run $ dot $ spec_arg)

let providers_cmd =
  let run parts =
    let ctx = Lazy.force ctx in
    match Ospack.providers ctx (join_spec parts) with
    | Ok entries ->
        List.iter
          (fun (e : Ospack_package.Provider_index.entry) ->
            Format.printf "%s provides %s%s@."
              e.Ospack_package.Provider_index.e_provider
              (Ospack_spec.Printer.node_to_string
                 e.Ospack_package.Provider_index.e_provided)
              (match e.Ospack_package.Provider_index.e_when with
              | None -> ""
              | Some w ->
                  " when " ^ Ospack_spec.Printer.to_string w))
          entries;
        0
    | Error e -> report_error e
  in
  Cmd.v
    (Cmd.info "providers" ~doc:"List providers of a virtual interface.")
    Term.(const run $ spec_arg)

let info_cmd =
  let pkg_name =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"PACKAGE" ~doc:"Package name.")
  in
  let run pkg =
    let ctx = Lazy.force ctx in
    match Ospack.info ctx pkg with
    | Ok text ->
        print_string text;
        0
    | Error e -> report_error e
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Show package metadata.")
    Term.(const run $ pkg_name)

let list_cmd =
  let substring =
    Arg.(
      value & pos 0 (some string) None
      & info [] ~docv:"FILTER" ~doc:"Substring filter.")
  in
  let run substring =
    let ctx = Lazy.force ctx in
    List.iter print_endline (Ospack.list_packages ctx ?substring ());
    0
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List available packages.")
    Term.(const run $ substring)

let compilers_cmd =
  let run () =
    let ctx = Lazy.force ctx in
    List.iter print_endline (Ospack.compiler_list ctx);
    0
  in
  Cmd.v
    (Cmd.info "compilers" ~doc:"List registered compiler toolchains.")
    Term.(const run $ const ())

let demo_cmd =
  (* install a stack, then show find/module/view output — exercises the
     whole pipeline in one process since the context is in-memory *)
  let run parts =
    let ctx = Lazy.force ctx in
    let spec = join_spec parts in
    match Ospack.install ctx spec with
    | Error e -> report_error e
    | Ok report ->
        Format.printf "==> installed %s@."
          (Concrete.to_string report.Ospack.Commands.ir_spec);
        print_outcomes report.Ospack.Commands.ir_outcomes;
        (match Ospack.find ctx () with
        | Ok records ->
            Format.printf "@.==> spack find (%d installed):@."
              (List.length records);
            List.iter
              (fun (r : Database.record) ->
                Format.printf "    %s/%s@."
                  (Concrete.node_to_string
                     (Concrete.root_node r.Database.r_spec))
                  r.Database.r_hash)
              records
        | Error e -> Format.eprintf "find failed: %s@." e);
        (match Ospack.generate_modules ctx `Tcl with
        | Ok paths ->
            Format.printf "@.==> generated %d TCL module files@."
              (List.length paths)
        | Error e -> Format.eprintf "modules failed: %s@." e);
        0
  in
  Cmd.v
    (Cmd.info "demo"
       ~doc:"Install a spec and walk the post-install workflow.")
    Term.(const run $ spec_arg)

let stats_cmd =
  let slack =
    Arg.(
      value & flag
      & info [ "slack" ]
          ~doc:
            "Also run the critical-path analyzer and print the per-node \
             slack table: how long each node could slip without growing \
             the makespan lower bound (0 exactly on critical nodes).")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "With --slack, attribute the schedule at $(docv) workers \
             (default 1).")
  in
  let run ccache slack jobs parts =
    let obs = Obs.create () in
    let ctx =
      Ospack.Context.create ~cache_root:"/ospack/buildcache"
        ?ccache_json:(read_ccache_file ccache) ~obs ()
    in
    if slack then
      match Ospack.profile ~jobs ctx (join_spec parts) with
      | Error e -> report_error e
      | Ok r ->
          Format.printf "==> %s@."
            (Installer.summary_to_string
               (Installer.summary_of_outcomes
                  r.Ospack.Commands.pf_report.Installer.pr_outcomes));
          print_string (Obs.timings_table obs);
          print_string (Obs.stats_table obs);
          print_string (Profile.summary_to_string r.Ospack.Commands.pf_profile);
          print_string (Profile.node_table r.Ospack.Commands.pf_profile);
          write_ccache_file ctx ccache;
          0
    else
      match Ospack.install ctx (join_spec parts) with
      | Error e -> report_error e
      | Ok report ->
          Format.printf "==> %s@."
            (Installer.summary_to_string report.Ospack.Commands.ir_summary);
          print_string (Obs.timings_table obs);
          print_string (Obs.stats_table obs);
          write_ccache_file ctx ccache;
          0
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Install a spec into a fresh store with recording enabled and \
          print the per-phase timing table, counters, and histograms. \
          With --ccache, the concretization-cache counters (ccache.hits \
          / ccache.misses / ccache.invalidations) show whether the run \
          was warm. With --slack, append the critical-path summary and \
          the per-node slack table.")
    Term.(const run $ ccache_arg $ slack $ jobs $ spec_arg)

let torture_cmd =
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Torture the install scheduler at $(docv) workers (default \
             1).")
  in
  let every =
    Arg.(
      value & opt int 1
      & info [ "every" ] ~docv:"K"
          ~doc:
            "Kill at every $(docv)-th write barrier instead of every one \
             (default 1) — a sampling knob for quick smoke runs.")
  in
  let env =
    Arg.(
      value & flag
      & info [ "env" ]
          ~doc:
            "Torture the environment lifecycle instead of a bare install: \
             create an environment with the given specs as roots (plus a \
             view), kill it at every selected write barrier, and check \
             that the manifest and lockfile are always a complete \
             previous version (write-then-rename, never torn) and that \
             recovery converges to the reference store and lockfile.")
  in
  let run jobs every env parts =
    if env then
      match
        Ospack.Environment.torture ~jobs ~every ~name:"torture"
          ~view:"/ospack/views/torture" ~roots:parts ()
      with
      | Ok r ->
          Format.printf "==> %s@."
            (Ospack.Environment.torture_report_to_string r);
          0
      | Error e -> report_error e
    else
      let ctx = Ospack.Context.create () in
      match Ospack.spec ctx (join_spec parts) with
      | Error e -> report_error e
      | Ok concrete -> (
          match
            Torture.run ~jobs ~every ~config:ctx.Ospack.Context.config
              ~repo:ctx.Ospack.Context.repo
              ~compilers:ctx.Ospack.Context.compilers [ concrete ]
          with
          | Ok r ->
              Format.printf "==> %s@." (Torture.report_to_string r);
              0
          | Error e -> report_error e)
  in
  Cmd.v
    (Cmd.info "torture"
       ~doc:
         "Crash-consistency torture: install the spec to completion \
          counting filesystem write barriers, then replay the install \
          killing it at each selected barrier, recover the store with a \
          fresh installer, and verify the invariants — the reloaded index \
          is a prefix of the completed store, recovery leaves no \
          unindexed orphan files, and re-running converges to \
          byte-identical state. Exits nonzero naming the first kill point \
          that violates an invariant.")
    Term.(const run $ jobs $ every $ env $ spec_arg)

let trace_validate_cmd =
  let file =
    Arg.(
      required & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Chrome trace-event file to validate.")
  in
  let expects =
    Arg.(
      value & opt_all string []
      & info [ "expect" ] ~docv:"NAME"
          ~doc:"Require an event with this name to be present (repeatable).")
  in
  (* the event types a JSONL structured-event log may contain: the
     session stream (Obs.to_jsonl) plus the profile analysis lines
     (Profile.to_jsonl) *)
  let known_evs =
    [
      "meta"; "span_begin"; "span_end"; "instant"; "counter"; "histogram";
      "profile.summary"; "profile.node"; "profile.worker";
    ]
  in
  let validate_jsonl file content expects =
    let lines =
      List.filter (fun l -> l <> "") (String.split_on_char '\n' content)
    in
    let exception Invalid of string in
    try
      let names = ref [] in
      let last_ts = ref neg_infinity in
      let open_spans = ref 0 in
      List.iteri
        (fun i line ->
          let fail msg = raise (Invalid (Printf.sprintf "line %d: %s" (i + 1) msg)) in
          match Json.of_string line with
          | Error e -> fail e
          | Ok j -> (
              (match Option.bind (Json.member "ev" j) Json.get_string with
              | None -> fail "no \"ev\" field"
              | Some ev ->
                  if not (List.mem ev known_evs) then
                    fail (Printf.sprintf "unknown event type %S" ev)
                  else begin
                    (match ev with
                    | "span_begin" -> incr open_spans
                    | "span_end" ->
                        if !open_spans = 0 then
                          fail "span_end with no open span"
                        else decr open_spans
                    | _ -> ())
                  end);
              (match Json.member "ts" j with
              | Some ts -> (
                  match
                    match ts with
                    | Json.Float f -> Some f
                    | Json.Int n -> Some (float_of_int n)
                    | _ -> None
                  with
                  | None -> fail "non-numeric \"ts\""
                  | Some f ->
                      if f < !last_ts then
                        fail
                          (Printf.sprintf
                             "timestamp went backwards (%g after %g)" f
                             !last_ts)
                      else last_ts := f)
              | None -> ());
              List.iter
                (fun key ->
                  match Option.bind (Json.member key j) Json.get_string with
                  | Some n -> names := n :: !names
                  | None -> ())
                [ "name"; "label" ]))
        lines;
      if lines = [] then raise (Invalid "empty event log");
      if !open_spans <> 0 then
        raise
          (Invalid (Printf.sprintf "%d span(s) never closed" !open_spans));
      match
        List.filter (fun n -> not (List.mem n !names)) expects
      with
      | [] ->
          Format.printf
            "==> %s: %d JSONL events, spans balanced, all expected names \
             present@."
            file (List.length lines);
          0
      | missing ->
          report_error
            (Printf.sprintf "%s: missing names: %s" file
               (String.concat ", " missing))
    with Invalid msg -> report_error (Printf.sprintf "%s: %s" file msg)
  in
  let run file expects =
    let ic = open_in file in
    let content = really_input_string ic (in_channel_length ic) in
    close_in ic;
    (* a JSONL event log starts with an {"ev":...} object on its first
       line; anything else takes the Chrome trace-document path *)
    let first_line =
      match String.index_opt content '\n' with
      | Some i -> String.sub content 0 i
      | None -> content
    in
    let is_jsonl =
      match Json.of_string first_line with
      | Ok (Json.Obj fields) -> List.mem_assoc "ev" fields
      | _ -> false
    in
    if is_jsonl then validate_jsonl file content expects
    else
      match Json.of_string content with
      | Error e -> report_error (Printf.sprintf "%s: %s" file e)
      | Ok j -> (
          let events =
            match Json.member "traceEvents" j with
            | Some (Json.List l) -> l
            | _ -> []
          in
          if events = [] then
            report_error (Printf.sprintf "%s: no traceEvents" file)
          else
            let names =
              List.filter_map
                (fun ev ->
                  Option.bind (Json.member "name" ev) Json.get_string)
                events
            in
            match List.filter (fun n -> not (List.mem n names)) expects with
            | [] ->
                Format.printf
                  "==> %s: %d events, all expected phases present@." file
                  (List.length events);
                0
            | missing ->
                report_error
                  (Printf.sprintf "%s: missing phases: %s" file
                     (String.concat ", " missing)))
  in
  Cmd.v
    (Cmd.info "trace-validate"
       ~doc:
         "Validate a trace file — a Chrome trace-event document or a \
          JSONL structured-event log (detected by its first line) — and \
          check expected event names are present.")
    Term.(const run $ file $ expects)

(* `spack script FILE` — run a sequence of commands against one in-memory
   store, so multi-step workflows (install, find, activate, view, gc) work
   from the shell despite per-process state. Lines: `# comment`, or
   `<command> [args...]`. *)
(* "NAME [-j N]" for the env script commands *)
let env_jobs rest =
  let tokens =
    List.filter (fun s -> s <> "") (String.split_on_char ' ' rest)
  in
  match tokens with
  | [ name ] -> Ok (name, 1)
  | [ name; "-j"; n ] -> (
      match int_of_string_opt n with
      | Some jobs when jobs >= 1 -> Ok (name, jobs)
      | _ -> Error "NAME [-j N]")
  | _ -> Error "NAME [-j N]"

let print_env_report ?(lock = "lockfile written") name
    (r : Ospack.Environment.report) =
  let nodes =
    List.length r.Ospack.Environment.er_report.Installer.pr_outcomes
  in
  Format.printf "==> %s: %d roots, %d nodes installed -j%d (%s%s)@." name
    (List.length r.Ospack.Environment.er_roots)
    nodes r.Ospack.Environment.er_report.Installer.pr_jobs lock
    (if r.Ospack.Environment.er_linked > 0 then
       Printf.sprintf ", %d files linked" r.Ospack.Environment.er_linked
     else "")

let script_cmd =
  let file =
    Arg.(
      required & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Script of spack commands, one per line.")
  in
  let config_file =
    Arg.(
      value & opt (some file) None
      & info [ "config" ] ~docv:"CONFIG"
          ~doc:"Site configuration file layered over the built-in defaults.")
  in
  let run config_file file =
    (* scripts record into an enabled sink so a final `stats` line can
       report where the session's virtual time went *)
    let ctx =
      match make_ctx ?config_file ~obs:(Obs.create ()) () with
      | Ok ctx -> ctx
      | Error e ->
          Format.eprintf "==> Error: %s@." e;
          exit 1
    in
    let ic = open_in file in
    let failures = ref 0 in
    let errf fmt =
      Format.ksprintf
        (fun s ->
          incr failures;
          Format.printf "==> Error: %s@." s)
        fmt
    in
    let show_records records =
      List.iter
        (fun (r : Database.record) ->
          Format.printf "    %s/%s%s@."
            (Concrete.node_to_string (Concrete.root_node r.Database.r_spec))
            r.Database.r_hash
            (if r.Database.r_external then " [external]" else ""))
        records
    in
    (try
       while true do
         let line = String.trim (input_line ic) in
         if line = "" || line.[0] = '#' then ()
         else begin
           Format.printf "@.spack> %s@." line;
           let cmd, rest =
             match String.index_opt line ' ' with
             | None -> (line, "")
             | Some i ->
                 ( String.sub line 0 i,
                   String.trim
                     (String.sub line (i + 1) (String.length line - i - 1)) )
           in
           match cmd with
           | "install" -> (
               match Ospack.install ctx rest with
               | Ok report -> print_outcomes report.Ospack.Commands.ir_outcomes
               | Error e -> errf "%s" e)
           | "spec" -> (
               match Ospack.spec ctx rest with
               | Ok c -> print_string (Concrete.tree_string c)
               | Error e -> errf "%s" e)
           | "find" -> (
               let query = if rest = "" then None else Some rest in
               match Ospack.find ctx ?query () with
               | Ok records ->
                   Format.printf "==> %d installed@." (List.length records);
                   show_records records
               | Error e -> errf "%s" e)
           | "uninstall" -> (
               match Ospack.uninstall ctx rest with
               | Ok r ->
                   Format.printf "==> removed %s/%s@."
                     (Concrete.root r.Database.r_spec)
                     r.Database.r_hash
               | Error e -> errf "%s" e)
           | "gc" -> (
               match Ospack.gc ctx with
               | Ok removed ->
                   Format.printf "==> collected %d installs@."
                     (List.length removed);
                   show_records removed
               | Error e -> errf "%s" e)
           | "activate" -> (
               match Ospack.activate ctx rest with
               | Ok rels ->
                   Format.printf "==> activated %s (%d files)@." rest
                     (List.length rels)
               | Error e -> errf "%s" e)
           | "deactivate" -> (
               match Ospack.deactivate ctx rest with
               | Ok _ -> Format.printf "==> deactivated %s@." rest
               | Error e -> errf "%s" e)
           | "view" -> (
               match Ospack.view ctx ~rules:[ rest ] with
               | Ok reports ->
                   List.iter
                     (fun r ->
                       Format.printf "    %s -> %s@."
                         r.Ospack_views.View.lr_link
                         r.Ospack_views.View.lr_target)
                     reports
               | Error e -> errf "%s" e)
           | "view-merge" -> (
               match Ospack.view_merge ctx ~view_root:rest with
               | Ok report ->
                   Format.printf "==> %d files linked, %d conflicts@."
                     report.Ospack_views.View.mr_linked
                     (List.length report.Ospack_views.View.mr_conflicts)
               | Error e -> errf "%s" e)
           | "module" -> (
               let flavor =
                 match rest with
                 | "dotkit" -> Ok `Dotkit
                 | "lmod" -> Ok `Lmod
                 | "tcl" | "" -> Ok `Tcl
                 | other -> Error other
               in
               match flavor with
               | Error other -> errf "unknown module flavor %s" other
               | Ok flavor -> (
                   match Ospack.generate_modules ctx flavor with
                   | Ok paths ->
                       Format.printf "==> wrote %d module files@."
                         (List.length paths)
                   | Error e -> errf "%s" e))
           | "providers" -> (
               match Ospack.providers ctx rest with
               | Ok entries ->
                   List.iter
                     (fun (e : Ospack_package.Provider_index.entry) ->
                       Format.printf "    %s@."
                         e.Ospack_package.Provider_index.e_provider)
                     entries
               | Error e -> errf "%s" e)
           | "diff" -> (
               (* diff SPEC-A | SPEC-B *)
               match String.index_opt rest '|' with
               | None -> errf "usage: diff SPEC-A | SPEC-B"
               | Some i -> (
                   let a = String.trim (String.sub rest 0 i) in
                   let b =
                     String.trim
                       (String.sub rest (i + 1) (String.length rest - i - 1))
                   in
                   match Ospack.diff ctx a b with
                   | Ok [] -> Format.printf "==> identical configurations@."
                   | Ok lines ->
                       List.iter (fun l -> Format.printf "    %s@." l) lines
                   | Error e -> errf "%s" e))
           | "cache-push" -> (
               match Ospack.buildcache_push ctx with
               | Ok n -> Format.printf "==> %d entries in the cache@." n
               | Error e -> errf "%s" e)
           | "cache-entry-export" -> (
               (* cache-entry-export QUERY FILE: copy the cache entry of
                  the one installed spec matching QUERY out to the real
                  filesystem, bytes as stored *)
               match
                 ( String.rindex_opt rest ' ',
                   ctx.Ospack.Context.cache )
               with
               | None, _ -> errf "usage: cache-entry-export QUERY FILE"
               | _, None -> errf "no build cache configured"
               | Some i, Some cache -> (
                   let query = String.trim (String.sub rest 0 i) in
                   let path =
                     String.sub rest (i + 1) (String.length rest - i - 1)
                   in
                   match Ospack.find ctx ~query () with
                   | Error e -> errf "%s" e
                   | Ok [ r ] -> (
                       let entry =
                         Ospack_store.Buildcache.entry_path cache
                           r.Database.r_hash
                       in
                       match
                         Ospack_vfs.Vfs.read_file ctx.Ospack.Context.vfs entry
                       with
                       | Error _ ->
                           errf "no cache entry for %s/%s" query
                             r.Database.r_hash
                       | Ok content ->
                           write_string_file path content;
                           Format.printf "==> exported cache entry %s to %s@."
                             r.Database.r_hash path)
                   | Ok records ->
                       errf "%s matches %d installed specs" query
                         (List.length records)))
           | "verify" -> (
               let query = if rest = "" then None else Some rest in
               match Ospack.verify ctx ?query () with
               | Ok reports ->
                   List.iter
                     (fun ((r : Database.record), report) ->
                       let module P = Ospack_store.Provenance in
                       if P.report_clean report then
                         Format.printf "    %s/%s: clean@."
                           (Concrete.root r.Database.r_spec)
                           r.Database.r_hash
                       else
                         Format.printf
                           "    %s/%s: %d missing, %d modified, %d extra@."
                           (Concrete.root r.Database.r_spec)
                           r.Database.r_hash
                           (List.length report.P.vr_missing)
                           (List.length report.P.vr_modified)
                           (List.length report.P.vr_extra))
                     reports
               | Error e -> errf "%s" e)
           | "env-create" -> (
               (* env-create NAME [VIEWPATH] *)
               let name, view =
                 match String.index_opt rest ' ' with
                 | None -> (rest, None)
                 | Some i ->
                     ( String.sub rest 0 i,
                       Some
                         (String.trim
                            (String.sub rest (i + 1)
                               (String.length rest - i - 1))) )
               in
               match Ospack.Environment.create ctx ~name ?view () with
               | Ok _ -> Format.printf "==> created environment %s@." name
               | Error e -> errf "%s" e)
           | "env-add" -> (
               (* env-add NAME SPEC *)
               match String.index_opt rest ' ' with
               | None -> errf "usage: env-add NAME SPEC"
               | Some i -> (
                   let name = String.sub rest 0 i in
                   let spec =
                     String.trim
                       (String.sub rest (i + 1) (String.length rest - i - 1))
                   in
                   match Ospack.Environment.load ctx ~name with
                   | Error e -> errf "%s" e
                   | Ok env -> (
                       match Ospack.Environment.add ctx env spec with
                       | Ok _ -> Format.printf "==> %s += %s@." name spec
                       | Error e -> errf "%s" e)))
           | "env-install" -> (
               (* env-install NAME [-j N] *)
               match env_jobs rest with
               | Error usage -> errf "usage: env-install %s" usage
               | Ok (name, jobs) -> (
                   match Ospack.Environment.load ctx ~name with
                   | Error e -> errf "%s" e
                   | Ok env -> (
                       match Ospack.Environment.install ~jobs ctx env with
                       | Ok r -> print_env_report name r
                       | Error e -> errf "%s" e)))
           | "env-install-locked" -> (
               (* env-install-locked NAME [-j N] *)
               match env_jobs rest with
               | Error usage -> errf "usage: env-install-locked %s" usage
               | Ok (name, jobs) -> (
                   match Ospack.Environment.load ctx ~name with
                   | Error e -> errf "%s" e
                   | Ok env -> (
                       match Ospack.Environment.install_locked ~jobs ctx env with
                       | Ok r -> print_env_report ~lock:"lockfile replayed" name r
                       | Error e ->
                           errf "%s"
                             (Ospack.Environment.locked_error_to_string e))))
           | "env-lock-export" -> (
               (* env-lock-export NAME FILE: copy the env's lockfile out to
                  the real filesystem (the cross-process bridge, like
                  --ccache) *)
               match String.index_opt rest ' ' with
               | None -> errf "usage: env-lock-export NAME FILE"
               | Some i -> (
                   let name = String.sub rest 0 i in
                   let path =
                     String.trim
                       (String.sub rest (i + 1) (String.length rest - i - 1))
                   in
                   match
                     Ospack_vfs.Vfs.read_file ctx.Ospack.Context.vfs
                       (Ospack.Environment.lock_path name)
                   with
                   | Error _ -> errf "environment %s has no lockfile" name
                   | Ok content ->
                       write_string_file path content;
                       Format.printf "==> exported %s lockfile to %s@." name
                         path))
           | "env-lock-import" -> (
               (* env-lock-import NAME FILE: adopt a lockfile written by a
                  previous process; validated (checksum + fingerprint) on
                  first use, never trusted blindly *)
               match String.index_opt rest ' ' with
               | None -> errf "usage: env-lock-import NAME FILE"
               | Some i -> (
                   let name = String.sub rest 0 i in
                   let path =
                     String.trim
                       (String.sub rest (i + 1) (String.length rest - i - 1))
                   in
                   if not (Sys.file_exists path) then
                     errf "no such file: %s" path
                   else
                     let ic = open_in path in
                     let content =
                       really_input_string ic (in_channel_length ic)
                     in
                     close_in ic;
                     match
                       Ospack_vfs.Vfs.write_file ctx.Ospack.Context.vfs
                         (Ospack.Environment.lock_path name)
                         content
                     with
                     | Ok () ->
                         Format.printf "==> imported %s lockfile from %s@."
                           name path
                     | Error e ->
                         errf "%s" (Ospack_vfs.Vfs.error_to_string e)))
           | "index-export" -> (
               (* index-export FILE: the database index as canonical JSON
                  on the real filesystem, for cross-process comparison *)
               let db =
                 Ospack_store.Installer.database
                   ctx.Ospack.Context.installer
               in
               match rest with
               | "" -> errf "usage: index-export FILE"
               | path ->
                   write_string_file path
                     (Json.to_string ~indent:2 (Database.to_json db) ^ "\n");
                   Format.printf "==> exported index (%d records) to %s@."
                     (Database.count db) path)
           | "env-status" -> (
               match Ospack.Environment.load ctx ~name:rest with
               | Error e -> errf "%s" e
               | Ok env ->
                   List.iter
                     (fun (root, installed) ->
                       Format.printf "    %-30s %s@." root
                         (if installed then "[installed]" else "[missing]"))
                     (Ospack.Environment.status ctx env))
           | "stats" ->
               print_string (Obs.timings_table ctx.Ospack.Context.obs);
               print_string (Obs.stats_table ctx.Ospack.Context.obs)
           | "echo" -> Format.printf "%s@." rest
           | other -> errf "unknown script command: %s" other
         end
       done
     with End_of_file -> close_in ic);
    if !failures = 0 then 0 else 1
  in
  Cmd.v
    (Cmd.info "script"
       ~doc:"Run a file of spack commands against one in-memory store.")
    Term.(const run $ config_file $ file)

let splice_cmd =
  let replace =
    Arg.(
      required
      & opt (some string) None
      & info [ "replace" ] ~docv:"DEPSPEC"
          ~doc:
            "The dependency spec to splice in (e.g. $(b,libelf@0.8.12)): \
             concretized and installed first, then its prefix is \
             substituted into the cached binary.")
  in
  let run replace parts =
    (* fresh per-process context: install the target first so there is a
       cached binary to splice, then push and splice *)
    let ctx = Ospack.Context.create ~cache_root:"/ospack/buildcache" () in
    let text = join_spec parts in
    match Ospack.install ctx text with
    | Error e -> report_error e
    | Ok report -> (
        print_outcomes report.Ospack.Commands.ir_outcomes;
        match Ospack.buildcache_push ctx with
        | Error e -> report_error e
        | Ok pushed -> (
            Format.printf "==> pushed %d entries to the build cache@." pushed;
            match Ospack.splice ctx text ~replace with
            | Error e -> report_error e
            | Ok r ->
                Format.printf "==> spliced %s: replaced %s@."
                  (Concrete.node_to_string
                     (Concrete.root_node
                        r.Installer.sp_record.Database.r_spec))
                  r.Installer.sp_replaced;
                Format.printf "==> spliced hash differs: %s -> %s@."
                  r.Installer.sp_old_hash r.Installer.sp_new_hash;
                Format.printf "==> rewired RPATHs in %d binaries@."
                  r.Installer.sp_rewired;
                Format.printf
                  "==> loader verified: %d binaries resolve with an empty \
                   environment@."
                  r.Installer.sp_resolved;
                Format.printf "==> new prefix %s@."
                  r.Installer.sp_record.Database.r_prefix;
                0))
  in
  Cmd.v
    (Cmd.info "splice"
       ~doc:
         "Rewire the cached binary of an installed spec onto a different \
          dependency prefix without rebuilding, re-verifying that every \
          NEEDED soname still resolves with an empty environment.")
    Term.(const run $ replace $ spec_arg)

let main =
  Cmd.group
    (Cmd.info "spack" ~version:"ospack-1.0"
       ~doc:"OCaml reproduction of the Spack package manager (SC'15).")
    [
      install_cmd; profile_cmd; spec_cmd; solve_cmd; graph_cmd;
      providers_cmd; info_cmd; list_cmd; compilers_cmd; demo_cmd; stats_cmd;
      splice_cmd; torture_cmd; trace_validate_cmd; script_cmd;
    ]

let () = exit (Cmd.eval' main)
