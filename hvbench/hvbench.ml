(* The repository benchmark.  Usage:

     hvbench --workload <name> --seed <n> --seconds <s> --trace <0|1>

   One closed loop in one process: each op starts when the previous one
   ends.  The last line of standard output is the result object; with
   --trace 0 it carries the end-to-end metrics, with --trace 1 the
   per-layer ones, from a run that measures the workload untraced, then
   again with a span around every call into a layer, then probes each
   layer on its own.  Before it come the host description, a report
   under per-workload metric names, and the exact simulated-plane
   values, which must repeat byte for byte at a given seed. *)

open Harness
module Core = Guillotine_microarch.Core
module Scenarios = Guillotine_faults.Scenarios

module type WORKLOAD = sig
  type state

  val setup : ctx -> state
  val loop : ctx -> state -> unit
  val probes : ctx -> state -> unit
  val per_layer : ctx -> state -> (Span.t * float) list -> unit
end

let workloads : (string * (module WORKLOAD)) list =
  [
    ("scenario-sweep", (module Sweep));
    ("guest-steady", (module Steady));
    ("guest-churn", (module Churn));
    ("fleet-serve", (module Fleet_serve));
  ]

let setups = 3

let per_layer_names =
  [
    ("crypto.keygen_s", "s");
    ("crypto.keygen_words", "words");
    ("core.deployment_create_s", "s");
    ("core.deployment_create_words", "words");
  ]
  @ List.map (fun n -> ("faults.run_s." ^ n, "s")) Scenarios.names
  @ List.map (fun n -> ("faults.words." ^ n, "words")) Scenarios.names
  @ [
      ("faults.pass_s", "s");
      ("hv.install_s", "s");
      ("hv.coadmit_s", "s");
      ("vet.analyze_s", "s");
      ("vet.interfere_s", "s");
      ("vet.verdict_mismatches", "count");
      ("microarch.run_s", "s");
      ("microarch.instr_retired", "count");
      ("microarch.jit.translations", "count");
      ("microarch.jit.invalidations", "count");
      ("microarch.jit.block_exits", "count");
      ("microarch.jit.wasted_frac", "ratio");
      ("microarch.predecode.hits", "count");
      ("microarch.predecode.fills", "count");
      ("microarch.predecode.hit_ratio", "ratio");
      ("microarch.irqs", "count");
      ("memory.l1.hits", "count");
      ("memory.l1.misses", "count");
      ("memory.tlb.hits", "count");
      ("memory.tlb.misses", "count");
      ("memory.hierarchy_cycles", "cycles");
      ("machine.create_s", "s");
      ("machine.sim_cycles", "cycles");
      ("sim.engine_run_s", "s");
      ("fleet.cell_create_s", "s");
      ("fleet.cell_run_s", "s");
      ("fleet.pass_s_1domain", "s");
      ("fleet.parallel_efficiency", "ratio");
      ("fleet.cpu_s", "s");
      ("obs.monitor_s", "s");
      ("serve.requests", "count");
      ("serve.blocked", "count");
      ("serve.released", "count");
      ("serve.request_s", "s");
      ("gc.minor_collections", "count");
      ("gc.major_collections", "count");
      ("trace.spans", "count");
    ]
  @ List.map (fun (n, u) -> ("trace.overhead." ^ n, u)) e2e_names

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("hvbench: " ^ s); exit 2) fmt

(* The benchmark measures the production tier only. *)
let refuse_modes () =
  List.iter
    (fun var ->
      match Sys.getenv_opt var with
      | None | Some "" | Some "0" -> ()
      | Some v -> fail "%s=%s selects a non-production tier; unset it" var v)
    [ "GUILLOTINE_NO_JIT"; "GUILLOTINE_NO_PREDECODE"; "GUILLOTINE_PROFILE" ];
  if not (Core.jit_enabled () && Core.predecode_enabled ()) || Core.profile_default ()
  then fail "the simulator is not in its production tier"

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "name");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_int seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0 = end-to-end run, 1 = traced per-layer run");
    ]
    (fun a -> fail "unexpected argument %s" a)
    "hvbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";
  if !seconds < 1 then fail "--seconds must be at least 1";
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  match List.assoc_opt !workload workloads with
  | Some w -> (!workload, w, !seed, float_of_int !seconds, !trace = 1)
  | None ->
    fail "unknown workload %S (one of: %s)" !workload
      (String.concat ", " (List.map fst workloads))

let ocamlrunparam () = Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM")

(* The end-to-end numbers under their per-workload names. *)
let report ctx metrics =
  let m name = List.assoc name metrics in
  let secs = List.map (fun s -> s.secs) ctx.ops in
  let p name v unit = Printf.printf "  %-22s %14.6g %s\n" name v unit in
  Printf.printf "ops %d  ops_failed %d\n" ctx.attempted ctx.failed;
  (match ctx.workload with
  | "scenario-sweep" -> p "scenario_runs_per_s" (m "work_per_s") "runs/s"
  | "guest-steady" -> p "guest_instr_per_s" (m "work_per_s") "instr/s"
  | "guest-churn" ->
    p "guest_instr_per_s" (m "work_per_s") "instr/s";
    p "admit_ms_p50" (m "op_ms_p50") "ms";
    Option.iter
      (fun q ->
        p (Printf.sprintf "admit_ms_p%.0f" (q *. 100.0)) (1000.0 *. quantile secs q) "ms")
      (tail_percentile (List.length secs))
  | _ ->
    p "fleet_pass_s" (m "op_ms_p50" /. 1000.0) "s";
    p "fleet_requests_per_s" (m "work_per_s") "req/s");
  p "words_per_op" (m "words_per_op") "words";
  p "peak_rss_mb" (m "peak_rss_mb") "MiB";
  p "setup_s" (m "setup_s") "s";
  let raw = e2e_raw ctx in
  if !factors = [] then
    Printf.printf "  (%d op samples; clock %s; times as measured)\n" (List.length secs)
      !clock_name
  else
    Printf.printf
      "  (%d op samples; clock %s; times in reference seconds; host speed %.3f of the \
       reference, median of %d calibrations; measured: work_per_s %.6g, op_ms_p50 %.6g, \
       setup_s %.6g)\n"
      (List.length secs) !clock_name (median !factors) (List.length !factors)
      (List.assoc "work_per_s" raw) (List.assoc "op_ms_p50" raw) (List.assoc "setup_s" raw)

let print_exact exact =
  let fields =
    List.rev_map (fun (k, v) -> Span.json_string k ^ ": " ^ Span.json_string v) exact
  in
  Printf.printf "{\"exact\": {%s}}\n" (String.concat ", " fields)

let () =
  let workload, (module W : WORKLOAD), seed, seconds, traced = parse_args () in
  refuse_modes ();
  if workload = "fleet-serve" then use_wall_clock ();
  Printf.printf "hvbench %s seed=%d seconds=%.0f trace=%b\n" workload seed seconds traced;
  Printf.printf "host: nproc=%d ocaml=%s OCAMLRUNPARAM=%S clock=%s\n%!"
    (Domain.recommended_domain_count ()) Sys.ocaml_version (ocamlrunparam ())
    !clock_name;
  let ctx = create_ctx ~workload ~seed ~seconds in
  set_sampling true;
  let st = ref None in
  for _ = 1 to setups do
    st := Some (setup ctx (fun () -> W.setup ctx))
  done;
  let st = Option.get !st in
  W.loop ctx st;
  set_sampling false;
  Span.current_op := -1;
  let untraced = e2e ctx in
  let exact = ctx.exact in
  let attempted = ref ctx.attempted and failed = ref ctx.failed in
  report ctx untraced;
  let metrics =
    if not traced then List.map (fun (n, u) -> (n, u, List.assoc n untraced)) e2e_names
    else begin
      reset_phase ctx;
      set_sampling true;
      Span.start ();
      let st = setup ctx (fun () -> W.setup ctx) in
      W.loop ctx st;
      Span.current_op := -1;
      set_sampling false;
      let traced_e2e = e2e ctx in
      set_sampling true;
      W.probes ctx st;
      Span.stop ();
      set_sampling false;
      attempted := !attempted + ctx.attempted;
      failed := !failed + ctx.failed;
      let spans = Span.recorded () in
      let timed = Span.self_times spans in
      W.per_layer ctx st timed;
      let per_op v = float_of_int v /. float_of_int (max 1 ctx.gc_ops) in
      set_layer ctx "gc.minor_collections" (per_op ctx.minor_gcs);
      set_layer ctx "gc.major_collections" (per_op ctx.major_gcs);
      set_layer ctx "trace.spans" (float_of_int (List.length spans));
      List.iter
        (fun (n, _) ->
          let u = List.assoc n untraced and t = List.assoc n traced_e2e in
          note ctx "tracing overhead: %s untraced %.6g, traced %.6g" n u t;
          set_layer ctx ("trace.overhead." ^ n) (t -. u))
        e2e_names;
      let dir = Filename.concat ".bench_build" "hvbench" in
      (try Sys.mkdir ".bench_build" 0o755 with Sys_error _ -> ());
      (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
      let base = Filename.concat dir (Printf.sprintf "%s-seed%d" workload seed) in
      Span.write_file (base ^ ".trace.json") (Span.chrome_trace spans);
      Span.write_file (base ^ ".folded") (Span.folded ~workload timed);
      Printf.printf "trace: %d spans -> %s.trace.json, %s.folded\n" (List.length spans) base
        base;
      List.map
        (fun (n, u) ->
          (n, u, Option.value ~default:0.0 (Hashtbl.find_opt ctx.layer n)))
        per_layer_names
    end
  in
  List.iter print_endline (List.rev ctx.notes);
  print_exact exact;
  let finite = List.for_all (fun (_, _, v) -> Float.is_finite v) metrics in
  if not finite then prerr_endline "hvbench: a metric is not a finite number";
  print_endline
    (result_json
       ~correct:(!failed = 0 && finite)
       ~attempted:!attempted ~failed:!failed metrics)
