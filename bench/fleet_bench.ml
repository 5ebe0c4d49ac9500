(* F-fleet: multicore capacity scaling of the cell fleet.

   The workload is {!Guillotine_fleet.Fleet.run_scenarios}: every cell
   of a C-cell fleet plays the same golden fault scenario (decorrelated
   per cell by the cell-id seed salt), sharded across C OCaml domains.

   Two kinds of number come out, and they are deliberately separated:

   - {b capacity} (the gated rows): simulated scenario-seconds
     completed in one fleet pass at each width, and the 4-cell/1-cell
     ratio.  Both are deterministic simulated quantities, reproducible
     on any host, so they are pinned exactly.

   - {b host rates} (detail only): wall-clock scenario runs per host
     second at each width, plus the host's core count.  These say how
     much of the capacity a given host realises in wall time; they vary
     with the machine, so no gate reads them yet. *)

module Fleet = Guillotine_fleet.Fleet
module Scenarios = Guillotine_faults.Scenarios
open Harness

let scenario = "false-alarm-probation"
let widths = [ ("f-fleet-1", 1); ("f-fleet-2", 2); ("f-fleet-4", 4) ]

type run_result = {
  cells : int;
  runs : int;            (* scenario runs completed *)
  sim_seconds : float;   (* simulated scenario-seconds covered *)
  host_s : float;        (* wall-clock seconds for the pass *)
}

let run_width ~repeats cells =
  let f = Fleet.create ~cells ~seed:1 () in
  let t0 = Unix.gettimeofday () in
  let outcomes = Fleet.run_scenarios ~scenario ~repeats f in
  let host_s = max (Unix.gettimeofday () -. t0) 1e-6 in
  let runs = Array.fold_left (fun acc l -> acc + List.length l) 0 outcomes in
  let sim_seconds =
    Array.fold_left
      (fun acc l ->
        List.fold_left
          (fun acc (o : Scenarios.outcome) -> acc +. o.Scenarios.sim_horizon)
          acc l)
      0.0 outcomes
  in
  { cells; runs; sim_seconds; host_s }

let capacity_row ~workload ~metric ~unit ~detail value =
  row ~suite:"fleet" ~workload ~layer:"fleet" ~metric ~unit ~direction:Exact
    ~kind:Sim ~detail value

(* Per pass (one scenario run per cell), so the value is invariant to
   --repeat/--quick and always checkable against the committed file. *)
let pass_row ~repeats (workload, r) =
  capacity_row ~workload ~metric:"sim_seconds_per_pass" ~unit:"sim-s"
    (r.sim_seconds /. float_of_int repeats)
    ~detail:
      (Printf.sprintf "%d cells, %d runs of %s; host %.2fs, %.3g runs/host-s"
         r.cells r.runs scenario r.host_s
         (float_of_int r.runs /. r.host_s))

let scaling_row ~r1 ~r4 =
  capacity_row ~workload:"capacity-scaling-4v1" ~metric:"capacity_ratio"
    ~unit:"x"
    (r4.sim_seconds /. r1.sim_seconds)
    ~detail:
      (Printf.sprintf
         "4-cell vs 1-cell simulated capacity; host wall %.2fs vs %.2fs on %d core(s)"
         r4.host_s r1.host_s
         (Domain.recommended_domain_count ()))

(* The 4v1 ratio row comes with any run that includes both widths. *)
let suite =
  {
    name = "fleet";
    title = "F-fleet: cell-fleet capacity scaling";
    workloads = List.map fst widths;
    run =
      (fun ~quick ~repeat workloads ->
        let repeats = if quick then 1 else max 1 repeat in
        let results =
          List.map (fun w -> (w, run_width ~repeats (List.assoc w widths))) workloads
        in
        let scaling =
          match
            (List.assoc_opt "f-fleet-1" results, List.assoc_opt "f-fleet-4" results)
          with
          | Some r1, Some r4 -> [ scaling_row ~r1 ~r4 ]
          | _ -> []
        in
        (List.map (pass_row ~repeats) results @ scaling, []));
  }
