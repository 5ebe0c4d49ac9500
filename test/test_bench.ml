(* Tests for the bench harness's --check: every gate must be able to
   fail.  Each case doctors one row of a run shaped like the committed
   BENCH_*.json files and expects [Harness.check] to reject it.  Pure:
   no suite runs. *)

open Guillotine_bench.Harness

let committed =
  [
    row ~suite:"perf" ~workload:"benign-guest" ~layer:"jit" ~metric:"instr_per_sec"
      ~unit:"instr/s" ~direction:Higher ~kind:Host 5.42238e7
      ~detail:"3200016 instructions retired";
    row ~suite:"perf" ~workload:"fetch-loop" ~layer:"predecode"
      ~metric:"alloc_words_per_instr" ~unit:"words/instr" ~direction:Exact ~kind:Host
      0.0;
    row ~suite:"profile" ~workload:"benign-p1" ~layer:"profiler" ~metric:"host_ms"
      ~unit:"ms" ~direction:Lower ~kind:Host 12.5;
    row ~suite:"adversary" ~workload:"toctou-dma-self-patch" ~layer:"scenario"
      ~metric:"detection_latency_s" ~unit:"sim-s" ~direction:Exact ~kind:Sim 0.5
      ~detail:{|verdict "contained" \ +0.50s|};
    row ~suite:"adversary" ~workload:"killswitch-replicate" ~layer:"scenario"
      ~metric:"residual_damage" ~unit:"bits-replicated" ~direction:Exact ~kind:Sim 0.0;
    row ~suite:"adversary" ~workload:"killswitch-exfil-sprint" ~layer:"scenario"
      ~metric:"detection_latency_s" ~unit:"sim-s" ~direction:Lower ~kind:Sim 2.3;
    row ~suite:"fleet" ~workload:"capacity-scaling-4v1" ~layer:"fleet"
      ~metric:"capacity_ratio" ~unit:"x" ~direction:Exact ~kind:Sim 4.0;
  ]

let baseline = to_json_lines committed

(* [committed] with the value of [workload]/[metric] replaced. *)
let doctor workload metric value =
  List.map
    (fun r -> if r.workload = workload && r.metric = metric then { r with value } else r)
    committed

let passes name rows =
  Alcotest.(check (list string)) name [] (check ~baseline rows)

let fails name rows =
  Alcotest.(check bool) name true (check ~baseline rows <> [])

let test_unchanged_passes () = passes "unchanged run" committed

let test_host_higher () =
  fails "drop beyond tolerance" (doctor "benign-guest" "instr_per_sec" 3.0e7);
  passes "drop within tolerance" (doctor "benign-guest" "instr_per_sec" 4.0e7);
  passes "rise" (doctor "benign-guest" "instr_per_sec" 9.0e7)

let test_host_lower () =
  fails "rise beyond tolerance" (doctor "benign-p1" "host_ms" 17.0);
  passes "rise within tolerance" (doctor "benign-p1" "host_ms" 15.0);
  passes "drop" (doctor "benign-p1" "host_ms" 1.0)

let test_exact () =
  fails "latency 0.5 -> 50" (doctor "toctou-dma-self-patch" "detection_latency_s" 50.0);
  fails "latency 0.5 -> 0.4" (doctor "toctou-dma-self-patch" "detection_latency_s" 0.4);
  fails "damage 0 -> 1" (doctor "killswitch-replicate" "residual_damage" 1.0);
  fails "capacity 4 -> 3.9" (doctor "capacity-scaling-4v1" "capacity_ratio" 3.9);
  fails "alloc 0 -> 0.01" (doctor "fetch-loop" "alloc_words_per_instr" 0.01);
  (* A Sim row is exact whatever its direction says. *)
  fails "sim latency 2.3 -> 2.5" (doctor "killswitch-exfil-sprint" "detection_latency_s" 2.5);
  fails "sim latency 2.3 -> 2.2" (doctor "killswitch-exfil-sprint" "detection_latency_s" 2.2);
  passes "last-bit difference"
    (doctor "killswitch-exfil-sprint" "detection_latency_s" (5.7 -. 3.4))

let test_gate_is_the_committed_one () =
  let loosened =
    List.map
      (fun r ->
        if r.workload = "toctou-dma-self-patch" then
          { r with kind = Host; direction = Lower; value = 0.1 }
        else r)
      committed
  in
  fails "run cannot relabel its own row" loosened

let test_missing_row () =
  fails "row missing"
    (List.filter (fun r -> r.workload <> "killswitch-replicate") committed);
  fails "row renamed"
    (List.map
       (fun r -> if r.workload = "killswitch-replicate" then { r with suite = "perf" } else r)
       committed)

let test_unparseable_baseline () =
  let rejects name text =
    Alcotest.(check bool) name true (check ~baseline:text committed <> [])
  in
  rejects "empty" "";
  rejects "not json" "suite perf benign-guest 5e7\n";
  rejects "truncated line" (String.sub baseline 0 (String.length baseline / 2));
  rejects "old schema"
    {|{"workload":"benign-guest","metric":"instr_per_sec","value":5.42238e+07,"baseline":0,"speedup":0,"alloc_words_per_instr":-1,"detail":""}|};
  rejects "value not a number"
    {|{"suite":"perf","workload":"w","layer":"l","metric":"m","unit":"u","direction":"higher","kind":"host","value":"fast","detail":""}|};
  rejects "unknown direction"
    {|{"suite":"perf","workload":"w","layer":"l","metric":"m","unit":"u","direction":"up","kind":"host","value":1,"detail":""}|}

let test_round_trip () =
  match of_json_lines baseline with
  | Error why -> Alcotest.fail why
  | Ok rows ->
    Alcotest.(check bool) "every row reads back" true (rows = committed)

let () =
  Alcotest.run "bench"
    [
      ( "check",
        [
          Alcotest.test_case "unchanged run passes" `Quick test_unchanged_passes;
          Alcotest.test_case "host higher" `Quick test_host_higher;
          Alcotest.test_case "host lower" `Quick test_host_lower;
          Alcotest.test_case "exact" `Quick test_exact;
          Alcotest.test_case "committed row sets the gate" `Quick
            test_gate_is_the_committed_one;
          Alcotest.test_case "missing row" `Quick test_missing_row;
          Alcotest.test_case "unparseable baseline" `Quick test_unparseable_baseline;
        ] );
      ("json", [ Alcotest.test_case "round trip" `Quick test_round_trip ]);
    ]
