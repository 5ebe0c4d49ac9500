(* Fast-path equivalence suite.

   The interpreter fast path (predecode cache + batched stepping) must
   be host-time faster but simulated-cycle invisible.  Three layers of
   pinning:

   - golden fault scenarios: all eight named scenarios (and their
     monitored replays) produce byte-identical telemetry, verdicts, and
     incident reports with the fast path on vs. forced off — the same
     escape hatch GUILLOTINE_NO_PREDECODE=1 selects at process start;
   - driver equivalence: the batched driver (Engine.every_batch +
     Machine.run_cores) leaves a guest in exactly the end state the
     one-instruction-per-event driver (Engine.every + run_models at
     quantum 1) does;
   - invalidation: a predecoded instruction is never stale — DRAM bit
     flips, hypervisor patches, and snapshot restore-then-patch all
     force a re-decode before the word executes again.

   The CI seed matrix re-runs the scenario layer at other seeds via
   FAULTS_SEED (alcotest owns argv, so an env var is the channel). *)

module Scenarios = Guillotine_faults.Scenarios
module Machine = Guillotine_machine.Machine
module Snapshot = Guillotine_machine.Snapshot
module Core = Guillotine_microarch.Core
module Dram = Guillotine_memory.Dram
module Asm = Guillotine_isa.Asm
module Isa = Guillotine_isa.Isa
module Guest = Guillotine_model.Guest_programs
module Engine = Guillotine_sim.Engine
module Telemetry = Guillotine_telemetry.Telemetry
module Table = Guillotine_util.Table

let matrix_seed =
  match Sys.getenv_opt "FAULTS_SEED" with
  | Some s -> (try int_of_string s with Failure _ -> 1)
  | None -> 1

let with_predecode fast f =
  let was = Core.predecode_enabled () in
  Core.set_predecode fast;
  Fun.protect ~finally:(fun () -> Core.set_predecode was) f

(* The machine snapshot now surfaces the execution-plane counters
   (coreN.predecode and coreN.jit).  Those are host-side observability
   and legitimately differ across the very modes this suite toggles
   (predecode off ⇒ zero predecode hits), so they are stripped before
   the byte-identity comparison; every simulated-state metric remains
   pinned. *)
let is_host_plane_metric key =
  let has_sub sub =
    let n = String.length key and m = String.length sub in
    let rec go i = i + m <= n && (String.sub key i m = sub || go (i + 1)) in
    go 0
  in
  has_sub ".predecode." || has_sub ".jit."

let render_snapshots o =
  let snaps =
    List.map
      (fun (s : Telemetry.snapshot) ->
        {
          s with
          Telemetry.values =
            List.filter (fun (k, _) -> not (is_host_plane_metric k)) s.Telemetry.values;
        })
      o.Scenarios.snapshots
  in
  Table.render (Telemetry.table snaps)

(* ------------------------- golden scenarios ------------------------ *)

let test_scenarios_identical () =
  List.iter
    (fun name ->
      let fast = with_predecode true (fun () -> Scenarios.run name ~seed:matrix_seed) in
      let slow = with_predecode false (fun () -> Scenarios.run name ~seed:matrix_seed) in
      let check what = Alcotest.(check string) (name ^ ": " ^ what) in
      check "verdict" slow.Scenarios.verdict fast.Scenarios.verdict;
      check "recovery" slow.Scenarios.recovery fast.Scenarios.recovery;
      Alcotest.(check int)
        (name ^ ": faults injected")
        slow.Scenarios.faults_injected fast.Scenarios.faults_injected;
      Alcotest.(check int)
        (name ^ ": recoveries")
        slow.Scenarios.recoveries fast.Scenarios.recoveries;
      check "trace" slow.Scenarios.trace fast.Scenarios.trace;
      check "snapshots" (render_snapshots slow) (render_snapshots fast))
    Scenarios.names

let test_monitored_identical () =
  List.iter
    (fun name ->
      let fast =
        with_predecode true (fun () -> Scenarios.run_monitored name ~seed:matrix_seed)
      in
      let slow =
        with_predecode false (fun () -> Scenarios.run_monitored name ~seed:matrix_seed)
      in
      Alcotest.(check (list (triple string string (float 0.0))))
        (name ^ ": alerts") slow.Scenarios.alerts fast.Scenarios.alerts;
      Alcotest.(check (option string))
        (name ^ ": incident json")
        slow.Scenarios.incident_json fast.Scenarios.incident_json;
      Alcotest.(check (option string))
        (name ^ ": incident text")
        slow.Scenarios.incident_text fast.Scenarios.incident_text;
      Alcotest.(check (option (float 0.0)))
        (name ^ ": detection latency")
        slow.Scenarios.detection_latency_s fast.Scenarios.detection_latency_s;
      Alcotest.(check string)
        (name ^ ": trace")
        slow.Scenarios.base.Scenarios.trace fast.Scenarios.base.Scenarios.trace)
    Scenarios.names

(* ------------------------- driver equivalence ---------------------- *)

let result_base = 4 * 256

let run_benign ~fast =
  with_predecode fast (fun () ->
      let m = Machine.create () in
      let p = Asm.assemble_exn (Guest.compute_loop ~iterations:2_000) in
      Machine.install_program m ~core:0 ~code_pages:4 ~data_pages:4 p;
      let e = Engine.create () in
      (if fast then
         ignore
           (Engine.every_batch e ~period:1.0 ~batch:64 (fun () ->
                Machine.run_cores m ~cycles:4096 > 0))
       else
         ignore (Engine.every e ~period:1.0 (fun () -> Machine.run_models m ~quantum:1 > 0)));
      Engine.run e;
      let c = Machine.model_core m 0 in
      Core.pause c;
      let hits, _fills = Core.predecode_stats c in
      ( Core.cycles c,
        Core.instructions_retired c,
        List.init 16 (Core.read_reg c),
        List.init 8 (fun i -> Dram.read (Machine.model_dram m) (result_base + i)),
        hits ))

let test_batched_driver_equivalent () =
  let fc, fr, fregs, fmem, fhits = run_benign ~fast:true in
  let lc, lr, lregs, lmem, lhits = run_benign ~fast:false in
  Alcotest.(check int) "cycles" lc fc;
  Alcotest.(check int) "instructions retired" lr fr;
  Alcotest.(check (list int64)) "registers" lregs fregs;
  Alcotest.(check (list int64)) "result memory" lmem fmem;
  (* Non-vacuity: the fast run ran on the cache, the off run never
     touched it. *)
  Alcotest.(check bool) "fast path hit the cache" true (fhits > 0);
  Alcotest.(check int) "legacy path never fills" 0 lhits

(* --------------------------- invalidation -------------------------- *)

(* A two-instruction guest whose first word we patch between runs; if a
   stale predecoded instruction ever executed, r1 would keep its old
   value. *)
let patchable = [ Isa.Movi (1, 11); Isa.Halt ]

let test_flip_bit_invalidates () =
  with_predecode true (fun () ->
      let m = Machine.create () in
      let p = Asm.instrs patchable in
      Machine.install_program m ~core:0 ~code_pages:4 ~data_pages:4 p;
      let c = Machine.model_core m 0 in
      ignore (Core.run c ~fuel:10);
      Alcotest.(check int64) "before flip" 11L (Core.read_reg c 1);
      (* Flip bit 4 of the immediate field: 11 lxor 16 = 27 — the same
         entry point Fault_plan's DRAM flips use. *)
      Dram.flip_bit (Machine.model_dram m) ~addr:p.Asm.origin ~bit:4;
      Core.set_pc c p.Asm.origin;
      Core.resume c;
      ignore (Core.run c ~fuel:10);
      Alcotest.(check int64) "after flip" 27L (Core.read_reg c 1))

let test_patch_invalidates () =
  with_predecode true (fun () ->
      let m = Machine.create () in
      let p = Asm.instrs patchable in
      Machine.install_program m ~core:0 ~code_pages:4 ~data_pages:4 p;
      let c = Machine.model_core m 0 in
      ignore (Core.run c ~fuel:10);
      Alcotest.(check int64) "first run" 11L (Core.read_reg c 1);
      (* Hypervisor-style patch over the private bus. *)
      Machine.inspect_write m p.Asm.origin
        (Guillotine_isa.Encoding.encode (Isa.Movi (1, 22)));
      Core.set_pc c p.Asm.origin;
      Core.resume c;
      ignore (Core.run c ~fuel:10);
      Alcotest.(check int64) "patched run" 22L (Core.read_reg c 1))

let test_restore_then_patch () =
  with_predecode true (fun () ->
      let m = Machine.create () in
      let p = Asm.instrs patchable in
      Machine.install_program m ~core:0 ~code_pages:4 ~data_pages:4 p;
      let c = Machine.model_core m 0 in
      Core.pause c;
      let snap = Snapshot.capture m in
      Core.resume c;
      ignore (Core.run c ~fuel:10);
      Alcotest.(check int64) "first run" 11L (Core.read_reg c 1);
      (* Roll back to the pre-run checkpoint, then patch the restored
         image before resuming: the core predecoded [movi r1, 11] on the
         abandoned timeline, and must not execute it on this one. *)
      Snapshot.restore m snap;
      Dram.write (Machine.model_dram m) p.Asm.origin
        (Guillotine_isa.Encoding.encode (Isa.Movi (1, 22)));
      Core.resume c;
      ignore (Core.run c ~fuel:10);
      Alcotest.(check int64) "restored-then-patched run" 22L (Core.read_reg c 1))

(* ----------------------- block translation ------------------------ *)

module Hypervisor = Guillotine_hv.Hypervisor
module Iommu = Guillotine_memory.Iommu
module Encoding = Guillotine_isa.Encoding

let with_jit fast f =
  let was = Core.jit_enabled () in
  Core.set_jit fast;
  Fun.protect ~finally:(fun () -> Core.set_jit was) f

(* Random programs over the FULL instruction space, but with control
   flow confined to the code region (targets in 0..len+4: past-the-end
   targets exercise the Nop-slide / fall-off-code paths) and load/store
   offsets small enough to hit both mapped data pages and unmapped
   space.  Whatever the program does — loop forever, trap, fall off its
   own image — translated and interpreted execution must agree on every
   piece of simulated state. *)
let gen_program =
  let open QCheck.Gen in
  let reg = int_range 0 15 in
  let len = 24 in
  let target = int_range 0 (len + 4) in
  let off = int_range 0 2048 in
  let line = int_range 0 7 in
  let imm =
    oneof
      [ int_range (-64) 64;
        oneofl [ 0; 1; -1; 0x7FFF_FFFF; -0x8000_0000 ] ]
  in
  let instr =
    oneof
      [
        return Isa.Nop;
        return Isa.Halt;
        return Isa.Iret;
        return Isa.Fence;
        map2 (fun r v -> Isa.Movi (r, v)) reg imm;
        map2 (fun r v -> Isa.Movhi (r, v)) reg imm;
        map2 (fun a b -> Isa.Mov (a, b)) reg reg;
        map3 (fun a b c -> Isa.Add (a, b, c)) reg reg reg;
        map3 (fun a b c -> Isa.Sub (a, b, c)) reg reg reg;
        map3 (fun a b c -> Isa.Mul (a, b, c)) reg reg reg;
        map3 (fun a b c -> Isa.Div (a, b, c)) reg reg reg;
        map3 (fun a b c -> Isa.Rem (a, b, c)) reg reg reg;
        map3 (fun a b c -> Isa.And_ (a, b, c)) reg reg reg;
        map3 (fun a b c -> Isa.Or_ (a, b, c)) reg reg reg;
        map3 (fun a b c -> Isa.Xor_ (a, b, c)) reg reg reg;
        map3 (fun a b c -> Isa.Shl (a, b, c)) reg reg reg;
        map3 (fun a b c -> Isa.Shr (a, b, c)) reg reg reg;
        map3 (fun a b c -> Isa.Load (a, b, c)) reg reg off;
        map3 (fun a b c -> Isa.Store (a, b, c)) reg reg off;
        map (fun t -> Isa.Jmp t) target;
        map (fun r -> Isa.Jr r) reg;
        map2 (fun r t -> Isa.Jal (r, t)) reg target;
        map3 (fun a b t -> Isa.Beq (a, b, t)) reg reg target;
        map3 (fun a b t -> Isa.Bne (a, b, t)) reg reg target;
        map3 (fun a b t -> Isa.Blt (a, b, t)) reg reg target;
        map3 (fun a b t -> Isa.Bge (a, b, t)) reg reg target;
        map (fun l -> Isa.Irq l) line;
        map (fun r -> Isa.Mfepc r) reg;
        map (fun r -> Isa.Mtepc r) reg;
        map (fun r -> Isa.Rdcycle r) reg;
        map2 (fun r o -> Isa.Clflush (r, o)) reg off;
      ]
  in
  list_repeat len instr

let print_program instrs =
  String.concat "; " (List.map Isa.to_string instrs)

(* Full end-state capture: registers, pc, cycle count, retirement
   count, a digest of all of model memory, and the complete profile
   accumulators (so translated execution provably attributes every
   cycle to the same (block, class) cell the interpreter does). *)
let run_random ~jit instrs =
  with_jit jit (fun () ->
      let m = Machine.create () in
      let hv = Hypervisor.create ~machine:m () in
      let p = Asm.instrs instrs in
      (match
         Hypervisor.install_program hv ~label:"qcheck" ~core:0 ~code_pages:4
           ~data_pages:4 p
       with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "qcheck install rejected");
      let c = Machine.model_core m 0 in
      Core.set_profiling c true;
      ignore (Core.run c ~fuel:2_000);
      Core.pause c;
      let digest =
        Machine.measure_model_memory m ~at:0
          ~len:(Dram.size (Machine.model_dram m))
      in
      ( Core.cycles c,
        Core.instructions_retired c,
        Core.get_pc c,
        List.init 16 (Core.read_reg c),
        digest,
        Array.to_list (Core.profile_cycles c),
        Array.to_list (Core.profile_retired c) ))

let prop_jit_equivalent =
  QCheck.Test.make ~name:"random programs: translated = interpreted" ~count:60
    (QCheck.make gen_program ~print:print_program)
    (fun instrs -> run_random ~jit:true instrs = run_random ~jit:false instrs)

(* Directed invalidation regressions, mirroring the predecode trio
   above but through the hypervisor install path so the program is
   eagerly block-translated; each asserts both the architectural result
   and that the stale translation was actually dropped. *)
let run_patch_scenario ~patch =
  with_jit true (fun () ->
      with_predecode true (fun () ->
          let m = Machine.create () in
          let hv = Hypervisor.create ~machine:m () in
          let p = Asm.instrs patchable in
          (match
             Hypervisor.install_program hv ~label:"patchable" ~core:0
               ~code_pages:4 ~data_pages:4 p
           with
          | Ok _ -> ()
          | Error _ -> Alcotest.fail "install rejected");
          let c = Machine.model_core m 0 in
          ignore (Core.run c ~fuel:10);
          Alcotest.(check int64) "first run" 11L (Core.read_reg c 1);
          let before = (Core.jit_stats c).Guillotine_microarch.Jit.invalidations in
          patch m p;
          Core.set_pc c p.Asm.origin;
          Core.resume c;
          ignore (Core.run c ~fuel:10);
          let after = (Core.jit_stats c).Guillotine_microarch.Jit.invalidations in
          Alcotest.(check bool) "translation invalidated" true (after > before);
          Core.read_reg c 1))

let test_jit_flip_bit () =
  let r =
    run_patch_scenario ~patch:(fun m p ->
        Dram.flip_bit (Machine.model_dram m) ~addr:p.Asm.origin ~bit:4)
  in
  Alcotest.(check int64) "flipped run" 27L r

let test_jit_dma_patch () =
  let r =
    run_patch_scenario ~patch:(fun m p ->
        (* A device patches code through an IOMMU window — the
           dma_sleeper TOCTOU arm — while the stale translation still
           exists. *)
        let iommu = Iommu.create () in
        (match Iommu.grant iommu ~dma_page:0 ~frame:0 ~writable:true with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "iommu grant");
        match
          Machine.dma_write m ~iommu ~dma_addr:p.Asm.origin
            [| Encoding.encode (Isa.Movi (1, 22)) |]
        with
        | Ok () -> ()
        | Error e -> Alcotest.fail ("dma_write: " ^ e))
  in
  Alcotest.(check int64) "dma-patched run" 22L r

let test_jit_restore_then_patch () =
  with_jit true (fun () ->
      let m = Machine.create () in
      let hv = Hypervisor.create ~machine:m () in
      let p = Asm.instrs patchable in
      (match
         Hypervisor.install_program hv ~label:"patchable" ~core:0 ~code_pages:4
           ~data_pages:4 p
       with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "install rejected");
      let c = Machine.model_core m 0 in
      Core.pause c;
      let snap = Snapshot.capture m in
      Core.resume c;
      ignore (Core.run c ~fuel:10);
      Alcotest.(check int64) "first run" 11L (Core.read_reg c 1);
      let before = (Core.jit_stats c).Guillotine_microarch.Jit.invalidations in
      Snapshot.restore m snap;
      Dram.write (Machine.model_dram m) p.Asm.origin
        (Encoding.encode (Isa.Movi (1, 22)));
      Core.resume c;
      ignore (Core.run c ~fuel:10);
      let after = (Core.jit_stats c).Guillotine_microarch.Jit.invalidations in
      Alcotest.(check bool) "translation invalidated" true (after > before);
      Alcotest.(check int64) "restored-then-patched run" 22L (Core.read_reg c 1))

(* Directed regression for the block runner's fall-through rule: control
   stays in a translated block only while the op left the core Running,
   untrapped, at pc + 1.  The loop block holds, mid-block, a taken [beq]
   and a [jal] that both land on pc + 1, a bne back-edge that re-enters
   the block at its leader, and a [div] by zero whose handler resumes two
   words on, at the next block; that block halts mid-block with a dead
   instruction behind it.  The plan is hand-made (the CFG would end
   blocks at each transfer) and installed on a bare core, so the run
   needs no machine or scenario. *)
let fallthrough_source =
  {|
  jmp @start
  .zero 7
  .word @on_div   ; vec 0: div-by-zero
  .zero 7
start:
  movi r1, 3
  movi r5, 0
loop:
  movi r2, 5
  movi r3, 5
  beq r2, r3, @after_beq   ; taken, to pc + 1
after_beq:
  jal r4, @after_jal       ; to pc + 1
after_jal:
  movi r7, 1
  sub r1, r1, r7
  bne r1, r5, @loop
  div r6, r1, r5           ; traps; the handler resumes at after_div
  movi r8, 98              ; never runs
after_div:
  movi r11, 7
  halt
  movi r8, 99              ; never runs
on_div:
  mfepc r9
  movi r10, 2
  add r9, r9, r10
  mtepc r9
  iret
|}

let run_fallthrough ~jit ~hooked =
  with_jit jit (fun () ->
      let p = Asm.assemble_exn fallthrough_source in
      let dram = Dram.create ~size:(16 * 1024) in
      let hierarchy = Guillotine_memory.Hierarchy.create ~dram () in
      let c = Core.create ~id:0 ~kind:Core.Model_core ~hierarchy () in
      (match
         Guillotine_memory.Mmu.map (Core.mmu c) ~vpage:0 ~frame:0
           Guillotine_memory.Mmu.perm_rx
       with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "map code page");
      Dram.load_program dram p;
      let sym = Asm.symbol p in
      let span a b = Array.init (b - a) (fun i -> a + i) in
      let code_end = Array.length p.Asm.words in
      let pcs =
        [|
          span (sym "start") (sym "loop");
          span (sym "loop") (sym "after_div");
          span (sym "after_div") (sym "on_div");
          span (sym "on_div") code_end;
        |]
      in
      let leaders = Array.map (fun b -> b.(0)) pcs in
      let block_of = Array.make code_end (Array.length pcs) in
      Array.iteri (fun b -> Array.iter (fun pc -> block_of.(pc) <- b)) pcs;
      Core.set_profile_blocks c ~block_of ~leaders;
      Core.set_profiling c true;
      let retired = ref [] in
      if hooked then
        Core.add_retire_hook c (fun ~pc instr -> retired := (pc, instr) :: !retired);
      Core.install_jit c
        { Guillotine_microarch.Jit.code_words = code_end; leaders; pcs };
      Core.pause c;
      Core.set_pc c (sym "start");
      Core.resume c;
      ignore (Core.run c ~fuel:1_000);
      ( Format.asprintf "%a" Core.pp_status (Core.status c),
        Core.cycles c,
        Core.instructions_retired c,
        Core.get_pc c,
        List.init 16 (Core.read_reg c),
        Array.to_list (Core.profile_cycles c),
        Array.to_list (Core.profile_retired c),
        List.rev_map (fun (pc, i) -> (pc, Isa.to_string i)) !retired,
        Core.jit_stats c ))

let test_jit_fallthrough () =
  List.iter
    (fun hooked ->
      let what s = Printf.sprintf "%s (retire hook %b)" s hooked in
      let status, cycles, instret, pc, regs, prof_c, prof_r, log, js =
        run_fallthrough ~jit:true ~hooked
      in
      let status', cycles', instret', pc', regs', prof_c', prof_r', log', _ =
        run_fallthrough ~jit:false ~hooked
      in
      Alcotest.(check string) (what "halted on halt") "halted (halt)" status;
      Alcotest.(check int64) (what "loop ran out") 0L (List.nth regs 1);
      Alcotest.(check int64) (what "handler resumed") 7L (List.nth regs 11);
      Alcotest.(check int64) (what "dead instructions skipped") 0L (List.nth regs 8);
      Alcotest.(check string) (what "status") status' status;
      Alcotest.(check int) (what "cycles") cycles' cycles;
      Alcotest.(check int) (what "instret") instret' instret;
      Alcotest.(check int) (what "pc") pc' pc;
      Alcotest.(check (list int64)) (what "registers") regs' regs;
      Alcotest.(check (list int)) (what "profile cycles") prof_c' prof_c;
      Alcotest.(check (list int)) (what "profile retired") prof_r' prof_r;
      Alcotest.(check (list (pair int string))) (what "retire hook log") log' log;
      (* Non-vacuity: the blocks were translated and actually ran. *)
      Alcotest.(check int) (what "translations") 4
        js.Guillotine_microarch.Jit.translations;
      Alcotest.(check bool) (what "block exits") true
        (js.Guillotine_microarch.Jit.block_exits > 0))
    [ true; false ]

let () =
  Alcotest.run "perf_equiv"
    [
      ( "scenarios",
        [
          Alcotest.test_case "golden scenarios identical" `Quick
            test_scenarios_identical;
          Alcotest.test_case "monitored replays identical" `Quick
            test_monitored_identical;
        ] );
      ( "driver",
        [
          Alcotest.test_case "batched = quantum-1" `Quick
            test_batched_driver_equivalent;
        ] );
      ( "invalidation",
        [
          Alcotest.test_case "flip_bit" `Quick test_flip_bit_invalidates;
          Alcotest.test_case "hypervisor patch" `Quick test_patch_invalidates;
          Alcotest.test_case "restore then patch" `Quick test_restore_then_patch;
        ] );
      ( "jit",
        [
          QCheck_alcotest.to_alcotest prop_jit_equivalent;
          Alcotest.test_case "flip_bit invalidates translation" `Quick
            test_jit_flip_bit;
          Alcotest.test_case "dma patch invalidates translation" `Quick
            test_jit_dma_patch;
          Alcotest.test_case "restore then patch invalidates translation" `Quick
            test_jit_restore_then_patch;
          Alcotest.test_case "mid-block fall-through, trap and halt" `Quick
            test_jit_fallthrough;
        ] );
    ]
