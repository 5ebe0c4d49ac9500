(* guest-steady: long-running guests on a machine built in set-up.

   One op is a round: install the benign compute loop on core 0 through
   the vetting hypervisor and run it to halt under the production
   batched driver, then do the same with the memory sweep.  The two are
   installed one after the other because every guest image loads at the
   same model-DRAM origin.  The compute loop runs block-translated and
   the sweep lives in the memory hierarchy, so microarch (JIT) and
   memory do the work; admission and rig build are set-up or noise. *)

open Harness
open Guests

let compute_iterations seed = 400_000 + (seed land 1023)
let sweep_passes = 48

type state = {
  m : Machine.t;
  hv : Hypervisor.t;
  core : Core.t;
  compute : Asm.program;
  compute_sum : int64;
  sweep : Asm.program;
  data : int array;
  mutable sweeps : int;  (** sweep runs since the data was written *)
  mutable reference : (counters * counters) option;
  mutable rounds : int;
  mutable total : counters;
}

(* Returns both guests' counters and checks, and the time spent inside
   the run calls. *)
let round_counters st =
  let run_s = ref 0.0 in
  let run label program ~data_pages =
    delta st.core (fun () ->
        match install st.hv ~label ~data_pages program with
        | Ok _ ->
          let (), dt = interval (fun () -> run_batched st.m) in
          run_s := !run_s +. dt
        | Error _ -> ())
  in
  let (), compute = run "compute-loop" st.compute ~data_pages:4 in
  let compute_ok = result st.m = st.compute_sum in
  let (), sweep = run "memory-sweep" st.sweep ~data_pages:sweep_data_pages in
  let sweep_ok =
    result st.m
    = sweep_checksum ~data:st.data ~passes:sweep_passes ~k:st.sweeps
  in
  st.sweeps <- st.sweeps + 1;
  (compute, compute_ok, sweep, sweep_ok, !run_s)

let setup ctx =
  let m = Span.with_ ~layer:"machine" "Machine.create" (fun () -> Machine.create ()) in
  Machine.pause_all_models m;
  let hv = Hypervisor.create ~machine:m () in
  let n = compute_iterations ctx.seed in
  let data = sweep_data ~seed:ctx.seed in
  write_sweep_data m data;
  let st =
    {
      m;
      hv;
      core = Machine.model_core m 0;
      compute = Asm.assemble_exn (Guest.compute_loop ~iterations:n);
      compute_sum = compute_checksum n;
      sweep = Asm.assemble_exn (sweep_source ~passes:sweep_passes);
      data;
      sweeps = 0;
      reference = None;
      rounds = 0;
      total = zero;
    }
  in
  (* Warm-up round: translations, caches and the host heap settle. *)
  ignore (round_counters st);
  st

(* The machine keeps each core's TLB private, so memory.tlb.* come from
   a probe core with a TLB of its own, replaying a round's two guests
   with the machine's mappings.  Simulated state does not depend on the
   execution tier, so the probe's interpreted run sees the same TLB
   traffic; its cycle count is compared with the machine's round. *)
let tlb_probe ctx st =
  let module Dram = Guillotine_memory.Dram in
  let module Mmu = Guillotine_memory.Mmu in
  let module Tlb = Guillotine_memory.Tlb in
  let dram = Dram.create ~size:(Machine.config st.m).Machine.model_words in
  let tlb = Tlb.create () in
  let c =
    Core.create ~id:0 ~kind:Core.Model_core ~hierarchy:(Hierarchy.create ~dram ()) ~tlb ()
  in
  Array.iteri
    (fun i v -> Dram.write dram (sweep_base + (i * sweep_stride)) (Int64.of_int v))
    st.data;
  let run program ~data_pages =
    for p = 0 to code_pages + data_pages - 1 do
      let perm = if p < code_pages then Mmu.perm_rx else Mmu.perm_rw in
      ignore (Mmu.map (Core.mmu c) ~vpage:p ~frame:p perm)
    done;
    Dram.load_program dram program;
    if Core.status c = Core.Running then Core.pause c;
    Core.set_pc c program.Asm.origin;
    Core.resume c;
    ignore (Core.run c ~fuel:max_int)
  in
  let round () =
    run st.compute ~data_pages:4;
    run st.sweep ~data_pages:sweep_data_pages
  in
  round ();
  Tlb.reset_stats tlb;
  let c0 = Core.cycles c in
  round ();
  let hits, misses = Tlb.stats tlb in
  set_layer ctx "memory.tlb.hits" (float_of_int hits);
  set_layer ctx "memory.tlb.misses" (float_of_int misses);
  exact_int ctx "tlb_probe.hits" hits;
  exact_int ctx "tlb_probe.misses" misses;
  match st.reference with
  | Some (rc, rs) ->
    note ctx "tlb probe round: %d sim cycles, machine round: %d" (Core.cycles c - c0)
      (rc.cycles + rs.cycles)
  | None -> ()

let loop ctx st =
  let t0 = now () in
  while now () -. t0 < ctx.seconds do
    Span.current_op := ctx.attempted;
    ignore
      (op ctx ~label:"round" (fun () ->
           let compute, compute_ok, sweep, sweep_ok, run_s = round_counters st in
           let same =
             match st.reference with
             | None ->
               st.reference <- Some (compute, sweep);
               exact_counters ctx "compute" compute;
               exact_counters ctx "sweep" sweep;
               true
             | Some (c, s) ->
               (c.retired, c.cycles, s.retired, s.cycles)
               = (compute.retired, compute.cycles, sweep.retired, sweep.cycles)
           in
           st.rounds <- st.rounds + 1;
           st.total <- map2 ( + ) st.total (map2 ( + ) compute sweep);
           add_work ctx ~work:(float_of_int (compute.retired + sweep.retired)) ~raw:run_s;
           check ctx compute_ok "compute-loop checksum"
           && check ctx sweep_ok "memory-sweep checksum"
           && check ctx same "retired/cycles differ from the first round"))
  done;
  tlb_probe ctx st

let probes (_ : ctx) (_ : state) = ()
let per_layer ctx st timed = layers ctx ~rounds:st.rounds st.total timed
