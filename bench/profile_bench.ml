(* Profiler bench suite (PROF1): what does arming the cycle-attribution
   profiler cost, and does it perturb anything?

   Two pinned workloads:

   - benign-p1   the P1 benign compute loop, measured profiler-off then
                 profiler-on in the same process.  Reports the profiled
                 throughput, the overhead fraction, and the simulated
                 cycle/instruction delta between the two runs — which
                 must be exactly zero, since the profiler only reads
                 simulated state.
   - adversary-sprint  the "killswitch-exfil-sprint" adversary scenario
                 (a deployment whose model core retires ~100k hot-loop
                 instructions), bare vs [~profile:true].  The profiled
                 run's trace, verdict and recovery count must be
                 byte-identical to the bare run, and the armed run must
                 actually collect a profile.

   Invariants (exit status 1 with or without --check):
   - any non-zero simulated delta or scenario divergence (also pinned
     as an exact [sim_delta] row at 0);
   - profiler overhead above [max_overhead_frac] on benign-p1;
   - an armed run that collects an empty profile (also pinned as an
     exact [profiled_blocks] row). *)

module Machine = Guillotine_machine.Machine
module Core = Guillotine_microarch.Core
module Asm = Guillotine_isa.Asm
module Guest = Guillotine_model.Guest_programs
module Engine = Guillotine_sim.Engine
module Scenarios = Guillotine_faults.Scenarios
module Profile = Guillotine_obs.Profile
open Harness

(* The hard gate on profiler cost: arming attribution may not slow the
   benign P1 workload by more than this fraction. *)
let max_overhead_frac = 0.05

type result = {
  workload : string;
  metric : string;  (* instr_per_sec | runs_per_sec *)
  unit : string;
  on_rate : float;  (* profiler-ON throughput, best of [repeat] runs *)
  off_rate : float;  (* profiler-OFF throughput *)
  sim_delta : int;  (* simulated cycles+instructions delta; must be 0 *)
  blocks : int;  (* blocks the armed run attributed cycles to *)
  detail : string;
}

let overhead r = 1.0 -. (r.on_rate /. r.off_rate)

(* ---------------------------- benign-p1 ---------------------------- *)

let bench_benign ~repeat ~iterations =
  let p = Asm.assemble_exn (Guest.compute_loop ~iterations) in
  let drive m =
    let e = Engine.create () in
    ignore
      (Engine.every_batch e ~period:1.0 ~batch:64 (fun () ->
           Machine.run_cores m ~cycles:4096 > 0));
    Engine.run e
  in
  (* One deterministic pass per mode for the simulated-state gate: a
     FRESH machine each time (identical cold caches/TLBs), same guest,
     profiler off then on — cycles and instructions retired must match
     exactly. *)
  let sim_pass ~profiled =
    let m = Machine.create () in
    let c = Machine.model_core m 0 in
    Machine.install_program m ~core:0 ~code_pages:4 ~data_pages:4 p;
    Core.set_profiling c profiled;
    drive m;
    (Core.cycles c, Core.instructions_retired c, c)
  in
  let bare_cycles, bare_retired, _ = sim_pass ~profiled:false in
  let prof_cycles, prof_retired, prof_core = sim_pass ~profiled:true in
  let sim_delta =
    abs (prof_cycles - bare_cycles) + abs (prof_retired - bare_retired)
  in
  let blocks =
    Profile.make
      [
        Profile.guest ~core:0 ~label:"benign" ~leaders:(Core.profile_leaders prof_core)
          ~cycles:(Core.profile_cycles prof_core)
          ~retired:(Core.profile_retired prof_core);
      ]
    |> Profile.hot_blocks |> List.length
  in
  (* Timing reuses one machine (reinstall per call): warm simulated
     state is fine here — both modes see it and only host time is
     measured. *)
  let m = Machine.create () in
  let c = Machine.model_core m 0 in
  let timed ~profiled () =
    Machine.install_program m ~core:0 ~code_pages:4 ~data_pages:4 p;
    Core.set_profiling c profiled;
    let before = Core.instructions_retired c in
    drive m;
    Core.instructions_retired c - before
  in
  let off_rate, _, _ = best_of ~repeat (timed ~profiled:false) in
  let on_rate, retired, _ = best_of ~repeat (timed ~profiled:true) in
  (* The off/on windows are measured back to back, so a host load spike
     in one of them can fake an overhead blowout.  Before letting the
     gate trip, re-measure with more samples and keep the minimum-noise
     (maximum) rate for each mode. *)
  let off_rate, on_rate, retired =
    if 1.0 -. (on_rate /. off_rate) <= max_overhead_frac then
      (off_rate, on_rate, retired)
    else begin
      let off2, _, _ = best_of ~repeat:(2 * max 1 repeat) (timed ~profiled:false) in
      let on2, retired2, _ = best_of ~repeat:(2 * max 1 repeat) (timed ~profiled:true) in
      (max off_rate off2, max on_rate on2, retired2)
    end
  in
  Core.set_profiling c false;
  {
    workload = "benign-p1";
    metric = "instr_per_sec";
    unit = "instr/s";
    on_rate;
    off_rate;
    sim_delta;
    blocks;
    detail =
      Printf.sprintf "%d instructions retired; %d sim cycles both modes" retired
        prof_cycles;
  }

(* ------------------------- adversary-sprint ------------------------ *)

let bench_adversary ~repeat =
  let scenario = "killswitch-exfil-sprint" in
  (* Divergence gate first: the profiled scenario must reproduce the
     bare run's telemetry byte for byte, and actually collect cycles. *)
  let bare = Scenarios.run scenario ~seed:1 in
  let prof = Scenarios.run scenario ~seed:1 ~profile:true in
  let diverged =
    bare.Scenarios.trace <> prof.Scenarios.trace
    || bare.Scenarios.verdict <> prof.Scenarios.verdict
    || bare.Scenarios.recoveries <> prof.Scenarios.recoveries
  in
  let blocks =
    match prof.Scenarios.profile with
    | None -> 0
    | Some p -> List.length (Profile.hot_blocks p)
  in
  let timed ~profiled () =
    ignore (Scenarios.run scenario ~seed:1 ~profile:profiled);
    1
  in
  let off_rate, _, _ = best_of ~repeat (timed ~profiled:false) in
  let on_rate, runs, _ = best_of ~repeat (timed ~profiled:true) in
  {
    workload = "adversary-sprint";
    metric = "runs_per_sec";
    unit = "runs/s";
    on_rate;
    off_rate;
    sim_delta = (if diverged then 1 else 0);
    blocks;
    detail =
      Printf.sprintf "%d full %s run(s); profiled replay %s" runs scenario
        (if diverged then "diverged" else "byte-identical");
  }

(* ------------------------------ driver ----------------------------- *)

let run_workload ~quick ~repeat = function
  | "benign-p1" ->
    bench_benign ~repeat ~iterations:(if quick then 20_000 else 400_000)
  | "adversary-sprint" -> bench_adversary ~repeat:(if quick then 1 else repeat)
  | w -> invalid_arg (Printf.sprintf "unknown profile workload %S" w)

let rows r =
  let row = row ~suite:"profile" ~workload:r.workload ~layer:"profiler" in
  [
    row ~metric:r.metric ~unit:r.unit ~direction:Higher ~kind:Host r.on_rate
      ~detail:
        (Printf.sprintf "profiled; bare %.3g %s, overhead %.1f%%; %s" r.off_rate
           r.unit (overhead r *. 100.0) r.detail);
    row ~metric:"sim_delta" ~unit:"cycles+instr" ~direction:Exact ~kind:Sim
      (float_of_int r.sim_delta)
      ~detail:"simulated difference between the bare and profiled runs";
    row ~metric:"profiled_blocks" ~unit:"blocks" ~direction:Exact ~kind:Sim
      (float_of_int r.blocks)
      ~detail:"blocks the armed run attributed cycles to";
  ]

let invariant_failures r =
  (if r.sim_delta <> 0 then
     [ Printf.sprintf "%s: simulated state perturbed (delta %d)" r.workload r.sim_delta ]
   else [])
  @ (if r.workload = "benign-p1" && overhead r > max_overhead_frac then
       [ Printf.sprintf "%s: profiler overhead %.1f%% exceeds %.0f%% gate" r.workload
           (overhead r *. 100.0) (max_overhead_frac *. 100.0) ]
     else [])
  @
  if r.blocks = 0 then [ r.workload ^ ": armed run collected no profile" ] else []

let suite =
  {
    name = "profile";
    title = "PROF1: cycle-attribution profiler overhead";
    workloads = [ "benign-p1"; "adversary-sprint" ];
    run =
      (fun ~quick ~repeat workloads ->
        let results = List.map (run_workload ~quick ~repeat) workloads in
        (List.concat_map rows results, List.concat_map invariant_failures results));
  }
