(* A-adversary: detection latency and residual damage for the
   post-admission adversary scenarios.

   The workload is the six {!Guillotine_faults.Scenarios.adversaries}
   — guests that vet clean and turn hostile after install (TOCTOU) or
   on anticipating termination (kill-switch evasion).  Every scenario
   reports two outcome metrics through [Scenarios.outcome.adversary]:

   - {b detection latency}: sim-seconds from the first hostile act to
     the first kill-relevant console alarm;
   - {b residual damage}: what the guest accomplished between the
     hostile turn and containment, in the scenario's own unit (bits
     exfiltrated, DRAM words corrupted, probe rounds, starved
     requests).

   Both are deterministic simulated quantities — byte-identical across
   seeds, hosts and interpreter modes — so they are [Sim] rows and the
   committed BENCH_ADVERSARY.json pins them exactly, the same way the
   golden tests do: a latency or damage change in either direction
   fails --check.

   The suite's own invariants hold with or without --check: every
   adversary must be detected and contained, and extra runs (--repeat)
   must replay byte-identically. *)

module Scenarios = Guillotine_faults.Scenarios
open Harness

let seed = 1

type run_result = {
  name : string;
  adv : Scenarios.adversary;
  verdict : string;
  sim_horizon : float;
  host_s : float;  (* wall-clock for [repeats] runs (informational) *)
  replays_identical : bool;
}

(* Play one adversary scenario [repeats] times; the metrics come from
   the first run, the extras only re-check that the summary (verdict,
   clocks, damage) replays byte-identically. *)
let run_scenario ~repeats name =
  let t0 = Unix.gettimeofday () in
  let first = Scenarios.run ~seed name in
  let replays_identical = ref true in
  for _ = 2 to repeats do
    let again = Scenarios.run ~seed name in
    if Scenarios.summary again <> Scenarios.summary first then
      replays_identical := false
  done;
  let host_s = max (Unix.gettimeofday () -. t0) 1e-6 in
  match first.Scenarios.adversary with
  | None ->
    invalid_arg
      (Printf.sprintf "scenario %s reported no adversary metrics" name)
  | Some adv ->
    {
      name;
      adv;
      verdict = first.Scenarios.verdict;
      sim_horizon = first.Scenarios.sim_horizon;
      host_s;
      replays_identical = !replays_identical;
    }

let detected r = r.adv.Scenarios.detection_latency_s <> None
let contained r = r.adv.Scenarios.contained_at <> None

let sim_row ~workload ~metric ~unit ~detail value =
  row ~suite:"adversary" ~workload ~layer:"scenario" ~metric ~unit
    ~direction:Exact ~kind:Sim ~detail value

let scenario_rows r =
  let a = r.adv in
  [
    sim_row ~workload:r.name ~metric:"detection_latency_s" ~unit:"sim-s"
      (Option.value a.Scenarios.detection_latency_s ~default:(-1.0))
      ~detail:
        (Printf.sprintf "turn %.2fs; contained %s; verdict %s; %.2fs host for the pass"
           a.Scenarios.hostile_turn_at
           (match a.Scenarios.contained_at with
            | Some c -> Printf.sprintf "+%.2fs" (c -. a.Scenarios.hostile_turn_at)
            | None -> "never")
           r.verdict r.host_s);
    sim_row ~workload:r.name ~metric:"residual_damage" ~unit:a.Scenarios.damage_unit
      (float_of_int a.Scenarios.residual_damage)
      ~detail:"damage done between the hostile turn and containment";
  ]

let containment_row results =
  let n = List.length results in
  let ok = List.length (List.filter contained results) in
  sim_row ~workload:"adversary-containment" ~metric:"contained_fraction"
    ~unit:"fraction"
    (float_of_int ok /. float_of_int (max n 1))
    ~detail:
      (Printf.sprintf "%d/%d adversaries contained; total %.3g sim-s over %.2fs host"
         ok n
         (List.fold_left (fun acc r -> acc +. r.sim_horizon) 0.0 results)
         (List.fold_left (fun acc r -> acc +. r.host_s) 0.0 results))

let invariant_failures r =
  List.filter_map
    (fun (holds, what) -> if holds then None else Some (r.name ^ " " ^ what))
    [
      (detected r, "went undetected");
      (contained r, "was never contained");
      (r.replays_identical, "replays diverged");
    ]

let suite =
  {
    name = "adversary";
    title = "A-adversary: detection latency and residual damage";
    workloads = Scenarios.adversaries;
    run =
      (fun ~quick ~repeat workloads ->
        let repeats = if quick then 1 else max 1 repeat in
        let results = List.map (run_scenario ~repeats) workloads in
        ( List.concat_map scenario_rows results @ [ containment_row results ],
          List.concat_map invariant_failures results ));
  }
