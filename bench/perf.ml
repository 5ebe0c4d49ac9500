(* Host-performance bench suite (P1): how fast does the simulator
   itself run on the host?

   Six pinned workloads, each reduced to one throughput row:

   - benign-guest   full-machine throughput on the benign compute loop,
                    installed through the hypervisor so the vetting CFG
                    feeds block translation, driven by Engine.every_batch
                    + Machine.run_cores; measured with block translation
                    on and then off under that same driver, so its
                    jit_speedup row is JIT vs interpreter and nothing
                    else.
   - patch-loop     the invalidation price: the same hv-installed
                    compute loop, but the host patches the hot mul word
                    between runs, so every round invalidates the
                    translated block and forces a lazy recompile before
                    re-entering steady state.
   - fetch-loop     a pure control-flow guest (nops + jmp); the hot
                    fetch/execute path allocates nothing on predecode
                    hits, so this is where the words-per-instruction
                    row is meaningful and gated exactly at 0 (Int64
                    arithmetic necessarily boxes, which benign-guest
                    would show).
   - covert-channel prime+probe on one shared hierarchy — the
                    Hierarchy/Cache access path with no core on top.
   - f-storm        the "fault-storm-failover" golden scenario, whole
                    rig end to end.
   - coadmit-pair   the V2 cost side: full static co-admission of the
                    colluding courier/scribbler pair — two effect
                    summaries (each a complete vetting analysis) plus
                    the pairwise interference check — measured in
                    pairs/sec, to set the microseconds-per-pair price
                    of rejecting before cycle 0 against the ~0.5
                    sim-second runtime detection latency the adversary
                    suite pays for the same attack.

   Simulated results are identical in every mode (the equivalence suite
   pins that); this file only measures host seconds and minor-heap
   words. *)

module Machine = Guillotine_machine.Machine
module Core = Guillotine_microarch.Core
module Hypervisor = Guillotine_hv.Hypervisor
module Asm = Guillotine_isa.Asm
module Isa = Guillotine_isa.Isa
module Encoding = Guillotine_isa.Encoding
module Guest = Guillotine_model.Guest_programs
module Covert = Guillotine_model.Covert
module Dram = Guillotine_memory.Dram
module Hierarchy = Guillotine_memory.Hierarchy
module Engine = Guillotine_sim.Engine
module Scenarios = Guillotine_faults.Scenarios
module Vet_corpus = Guillotine_core.Vet_corpus
module Prng = Guillotine_util.Prng
module Bits = Guillotine_util.Bits
open Harness

let host_rate ~workload ~layer ~metric ~unit ?detail value =
  row ~suite:"perf" ~workload ~layer ~metric ~unit ~direction:Higher ~kind:Host
    ?detail value

(* --------------------------- benign-guest -------------------------- *)

(* The machine is built once and the guest reinstalled per timed call:
   rig construction (DRAM arrays, cache ways) is setup, not the
   interpreter work this sample measures, and at --quick iteration
   counts it would otherwise dominate the window.  Installation goes
   through the hypervisor — the production path — so the vetting CFG's
   block map reaches the core and the JIT arm runs block-translated;
   the per-call reinstall keeps the (cheap) translation pass inside the
   window, as it is in deployment.  Only the JIT flag differs between
   the arms; predecode stays as the environment set it.  --quick keeps
   the full loop: at a twentieth of it the reinstall dominates the
   window, and the rows would no longer measure what the committed
   full-run rows measure. *)
let bench_benign ~repeat ~iterations =
  let m = Machine.create () in
  let hv = Hypervisor.create ~machine:m () in
  let p = Asm.assemble_exn (Guest.compute_loop ~iterations) in
  let c = Machine.model_core m 0 in
  let run ~jit () =
    Core.set_jit jit;
    (match
       Hypervisor.install_program hv ~label:"benign" ~core:0 ~code_pages:4
         ~data_pages:4 p
     with
    | Ok _ -> ()
    | Error _ -> invalid_arg "benign-guest: install rejected");
    let before = Core.instructions_retired c in
    let e = Engine.create () in
    ignore
      (Engine.every_batch e ~period:1.0 ~batch:64 (fun () ->
           Machine.run_cores m ~cycles:4096 > 0));
    Engine.run e;
    Core.instructions_retired c - before
  in
  (* The arms alternate, so a host speed-state change between them
     cannot fake the ratio. *)
  let ambient = Core.jit_enabled () in
  let jit = ref (0.0, 0, 0.0) and interp = ref (0.0, 0, 0.0) in
  for _ = 1 to max 1 repeat do
    jit := max !jit (best_of ~repeat:1 (run ~jit:true));
    interp := max !interp (best_of ~repeat:1 (run ~jit:false))
  done;
  Core.set_jit ambient;
  let (jit_rate, retired, _), (interp_rate, _, _) = (!jit, !interp) in
  let layer = "jit" and workload = "benign-guest" in
  [
    host_rate ~workload ~layer ~metric:"instr_per_sec" ~unit:"instr/s" jit_rate
      ~detail:(Printf.sprintf "%d instructions retired" retired);
    host_rate ~workload ~layer ~metric:"jit_speedup" ~unit:"x"
      (jit_rate /. interp_rate)
      ~detail:
        (Printf.sprintf "%.3g instr/s translated vs %.3g instr/s interpreted"
           jit_rate interp_rate);
  ]

(* ---------------------------- patch-loop --------------------------- *)

(* Self-modifying guest: after each run to halt, the host rewrites the
   hot [mul] word (alternating between two encodings so the stored word
   really changes) and re-executes from entry.  Every round the
   translated loop block sees a fetch/compile word mismatch, drops the
   translation, finishes the round interpreting + lazily recompiling —
   the invalidation path this sample prices.  The [dma_sleeper] TOCTOU
   adversary exercises the same mechanism for correctness; this pins
   its host cost. *)
let bench_patch_loop ~repeat ~rounds =
  let m = Machine.create () in
  let hv = Hypervisor.create ~machine:m () in
  let p = Asm.assemble_exn (Guest.compute_loop ~iterations:64) in
  (match
     Hypervisor.install_program hv ~label:"patch-loop" ~core:0 ~code_pages:4
       ~data_pages:4 p
   with
  | Ok _ -> ()
  | Error _ -> invalid_arg "patch-loop: install rejected");
  let c = Machine.model_core m 0 in
  let mul_a = Encoding.encode (Isa.Mul (6, 1, 1)) in
  let mul_b = Encoding.encode (Isa.Mul (6, 5, 5)) (* r5 = 1: same result shape *) in
  let mul_addr =
    let found = ref (-1) in
    Array.iteri
      (fun i w -> if !found < 0 && w = mul_a then found := p.Asm.origin + i)
      p.Asm.words;
    if !found < 0 then invalid_arg "patch-loop: mul word not found";
    !found
  in
  (* First run to halt outside the window: warms caches and the initial
     translation, and leaves the core quiescent for inspect_write. *)
  ignore (Core.run c ~fuel:max_int);
  let flip = ref false in
  let run () =
    let before = Core.instructions_retired c in
    for _ = 1 to rounds do
      Machine.inspect_write m mul_addr (if !flip then mul_a else mul_b);
      flip := not !flip;
      Core.set_pc c p.Asm.origin;
      Core.resume c;
      ignore (Core.run c ~fuel:max_int)
    done;
    Core.instructions_retired c - before
  in
  let rate, retired, _ = best_of ~repeat run in
  let js = Core.jit_stats c in
  [
    host_rate ~workload:"patch-loop" ~layer:"jit" ~metric:"instr_per_sec"
      ~unit:"instr/s" rate
      ~detail:
        (Printf.sprintf
           "%d instructions across patch+rerun rounds; %d invalidations, %d retranslations"
           retired js.Guillotine_microarch.Jit.invalidations
           js.Guillotine_microarch.Jit.translations);
  ]

(* ---------------------------- fetch-loop --------------------------- *)

(* Standard image layout (entry jump, zeroed vector table, code from
   word 16) with a body that never touches an Int64: nothing on the
   fast path allocates, which Gc.minor_words verifies.  The
   decode-every-fetch rate is measured too, for the detail line. *)
let fetch_loop_source =
  {|
  jmp @start
  .zero 7
  .zero 8
start:
  nop
  nop
  nop
  nop
  nop
  nop
  nop
  jmp @start
|}

let bench_fetch_loop ~repeat ~fuel =
  let m = Machine.create () in
  let p = Asm.assemble_exn fetch_loop_source in
  Machine.install_program m ~core:0 ~code_pages:4 ~data_pages:4 p;
  let core = Machine.model_core m 0 in
  (* Warm the predecode slots and the cache hierarchy out of the
     measured window; the loop is infinite, so every later call is
     steady state. *)
  ignore (Core.run core ~fuel:1024);
  let alloc = ref infinity in
  let measure ~predecode () =
    Core.set_predecode predecode;
    let w0 = Gc.minor_words () in
    let executed = Core.run core ~fuel in
    let words = Gc.minor_words () -. w0 in
    if predecode then alloc := min !alloc (words /. float_of_int executed);
    executed
  in
  let ambient = Core.predecode_enabled () in
  let fast_rate, executed, _ = best_of ~repeat (measure ~predecode:true) in
  let legacy_rate, _, _ = best_of ~repeat (measure ~predecode:false) in
  Core.set_predecode ambient;
  let workload = "fetch-loop" and layer = "predecode" in
  [
    host_rate ~workload ~layer ~metric:"instr_per_sec" ~unit:"instr/s" fast_rate
      ~detail:
        (Printf.sprintf "%d instructions, steady state; %.2fx vs decode-every-fetch"
           executed (fast_rate /. legacy_rate));
    row ~suite:"perf" ~workload ~layer ~metric:"alloc_words_per_instr"
      ~unit:"words/instr" ~direction:Exact ~kind:Host !alloc
      ~detail:"minor-heap words per instruction on predecode hits";
  ]

(* -------------------------- covert-channel ------------------------- *)

let bench_covert ~repeat ~bits =
  let dram = Dram.create ~size:(64 * 1024) in
  let h = Hierarchy.create ~dram () in
  let prng = Prng.create 97L in
  let run () =
    let secret = Bits.random prng bits in
    let r = Covert.prime_probe ~sender:h ~receiver:h secret in
    r.Covert.cycles
  in
  let rate, cycles, _ = best_of ~repeat run in
  [
    host_rate ~workload:"covert-channel" ~layer:"memory" ~metric:"cycles_per_sec"
      ~unit:"cycles/s" rate
      ~detail:(Printf.sprintf "%d sim cycles, %d bits, shared L1" cycles bits);
  ]

(* ----------------------------- f-storm ----------------------------- *)

let run_fstorm ~runs () =
  for _ = 1 to runs do
    ignore (Scenarios.run "fault-storm-failover" ~seed:1)
  done;
  runs

let bench_fstorm ~repeat ~runs =
  let rate, total, dt = best_of ~repeat (run_fstorm ~runs) in
  [
    host_rate ~workload:"f-storm" ~layer:"scenario" ~metric:"runs_per_sec"
      ~unit:"runs/s" rate
      ~detail:(Printf.sprintf "%d full scenario run(s) in %.2fs host" total dt);
  ]

(* --------------------------- coadmit-pair -------------------------- *)

let bench_coadmit ~repeat ~pairs =
  let roster =
    match Vet_corpus.find_roster "colluding-pair" with
    | Some r -> r
    | None -> invalid_arg "colluding-pair roster missing from corpus"
  in
  let run () =
    for _ = 1 to pairs do
      ignore (Vet_corpus.coadmit roster)
    done;
    pairs
  in
  let rate, total, dt = best_of ~repeat run in
  [
    host_rate ~workload:"coadmit-pair" ~layer:"vet" ~metric:"pairs_per_sec"
      ~unit:"pairs/s" rate
      ~detail:
        (Printf.sprintf
           "%d co-admissions in %.2fs host (%.0f us/pair, rejected before cycle 0; the runtime path catches the same rewrite ~0.5 sim-s after admission)"
           total dt (1e6 /. rate));
  ]

(* ------------------------------ driver ----------------------------- *)

let run_workload ~quick ~repeat = function
  | "benign-guest" -> bench_benign ~repeat ~iterations:400_000
  | "patch-loop" -> bench_patch_loop ~repeat ~rounds:(if quick then 16 else 128)
  | "fetch-loop" -> bench_fetch_loop ~repeat ~fuel:(if quick then 100_000 else 2_000_000)
  | "covert-channel" -> bench_covert ~repeat ~bits:(if quick then 64 else 512)
  | "f-storm" -> bench_fstorm ~repeat:(if quick then 1 else repeat) ~runs:1
  | "coadmit-pair" -> bench_coadmit ~repeat ~pairs:(if quick then 8 else 64)
  | w -> invalid_arg (Printf.sprintf "unknown perf workload %S" w)

let suite =
  {
    name = "perf";
    title = "P1: host-perf (guest execution tiers, memory, scenario, vet)";
    workloads =
      [ "benign-guest"; "patch-loop"; "fetch-loop"; "covert-channel"; "f-storm";
        "coadmit-pair" ];
    run =
      (fun ~quick ~repeat workloads ->
        (List.concat_map (run_workload ~quick ~repeat) workloads, []));
  }
