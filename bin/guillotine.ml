(* The guillotine command-line tool.

   Subcommands:
     attacks          run the adversarial suite (T2) and print the verdict table
     asm              assemble a GRISC source file; print listing and symbols
     run              assemble + execute a guest program on a model core
     serve            run the model-service simulator
     risk             classify a model card under the policy hypervisor
     covert           run the prime+probe covert channel
     trace            run a scenario and export its Chrome-trace timeline
     faults           replay a named fault-injection scenario deterministically
     monitor          replay a fault scenario with the observability plane attached
     report           print the incident report for a monitored fault scenario
     vet              statically vet a guest program (or the whole corpus);
                      --coadmit checks guest *sets* for cross-guest interference
     fleet            run a fleet of cells sharded across OCaml domains
     profile          cycle-attribution profile of a scenario or corpus guest
     bench SUITE      bench suites with a --check against BENCH_*.json:
                      perf (P1 host throughput), fleet (capacity scaling),
                      adversary (detection latency + residual damage),
                      profile (PROF1 profiler overhead + sim-cycle equality)
     demo             containment walkthrough (same story as the example)

   Try:  dune exec bin/guillotine.exe -- attacks *)

open Cmdliner
module Table = Guillotine_util.Table
module Attacks = Guillotine_core.Attacks
module Asm = Guillotine_isa.Asm
module Machine = Guillotine_machine.Machine
module Core = Guillotine_microarch.Core
module Dram = Guillotine_memory.Dram
module Engine = Guillotine_sim.Engine
module Service = Guillotine_serve.Service
module Workload = Guillotine_serve.Workload
module Risk = Guillotine_policy.Risk
module Regulation = Guillotine_policy.Regulation
module Prng = Guillotine_util.Prng
module Vet = Guillotine_vet.Vet
module Interfere = Guillotine_vet.Interfere
module Vet_corpus = Guillotine_core.Vet_corpus

(* ----------------------------- attacks ---------------------------- *)

let attacks_cmd =
  let run seed =
    let t =
      Table.create ~title:"adversarial suite"
        ~columns:
          [
            ("attack", Table.Left);
            ("baseline", Table.Left);
            ("guillotine", Table.Left);
            ("detail", Table.Left);
          ]
    in
    List.iter
      (fun (o : Attacks.outcome) ->
        Table.add_row t
          [
            o.Attacks.name;
            (if o.Attacks.baseline_escaped then "ESCAPED" else "contained");
            (if o.Attacks.guillotine_escaped then "ESCAPED" else "contained");
            o.Attacks.guillotine_detail;
          ])
      (Attacks.run_all ~seed:(Int64.of_int seed) ());
    Table.print t
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")
  in
  Cmd.v
    (Cmd.info "attacks" ~doc:"Run the adversarial scenario suite (experiment T2).")
    Term.(const run $ seed)

(* ------------------------------- asm ------------------------------ *)

let asm_cmd =
  let run file origin =
    let source = In_channel.with_open_text file In_channel.input_all in
    match Asm.assemble ~origin source with
    | Error e ->
      Printf.eprintf "%s:%d: %s\n" file e.Asm.line e.Asm.message;
      exit 1
    | Ok p ->
      Printf.printf "; %d words at origin %d\n%s" (Array.length p.Asm.words) p.Asm.origin
        (Asm.disassemble p.Asm.words);
      if p.Asm.symbols <> [] then begin
        print_endline "; symbols:";
        List.iter
          (fun (name, addr) -> Printf.printf ";   %-20s = %d\n" name addr)
          (List.sort (fun (_, a) (_, b) -> compare a b) p.Asm.symbols)
      end
  in
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Assembly source.")
  in
  let origin =
    Arg.(value & opt int 0 & info [ "origin" ] ~docv:"ADDR" ~doc:"Load address.")
  in
  Cmd.v
    (Cmd.info "asm" ~doc:"Assemble a GRISC source file and print the listing.")
    Term.(const run $ file $ origin)

(* ------------------------------- run ------------------------------ *)

let run_cmd =
  let run file fuel lock =
    let source = In_channel.with_open_text file In_channel.input_all in
    match Asm.assemble source with
    | Error e ->
      Printf.eprintf "%s:%d: %s\n" file e.Asm.line e.Asm.message;
      exit 1
    | Ok p ->
      let m = Machine.create () in
      Machine.install_program m ~core:0 ~code_pages:4 ~data_pages:4 p;
      if lock then
        Guillotine_memory.Mmu.lock_executable (Core.mmu (Machine.model_core m 0));
      let executed = Core.run (Machine.model_core m 0) ~fuel in
      let core = Machine.model_core m 0 in
      Format.printf "executed %d instructions in %d cycles; status: %a@." executed
        (Core.cycles core) Core.pp_status (Core.status core);
      Core.pause core;
      print_endline "registers:";
      for r = 0 to 15 do
        let v = Core.read_reg core r in
        if v <> 0L then Printf.printf "  r%-2d = %Ld\n" r v
      done;
      let result_base = 4 * 256 in
      print_endline "result area (first 8 words of the data page):";
      for i = 0 to 7 do
        let v = Dram.read (Machine.model_dram m) (result_base + i) in
        if v <> 0L then Printf.printf "  [%d] = %Ld\n" (result_base + i) v
      done
  in
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Assembly source.")
  in
  let fuel =
    Arg.(value & opt int 100_000 & info [ "fuel" ] ~docv:"N" ~doc:"Instruction budget.")
  in
  let lock =
    Arg.(value & flag & info [ "lock" ] ~doc:"Lock the MMU's executable set (W^X).")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute a guest program on a Guillotine model core.")
    Term.(const run $ file $ fuel $ lock)

(* ------------------------------ serve ----------------------------- *)

let serve_cmd =
  let run replicas rate duration guillotine =
    let e = Engine.create () in
    let cfg =
      if guillotine then Service.guillotine_config ~replicas
      else Service.baseline_config ~replicas
    in
    let svc = Service.create ~engine:e cfg in
    Workload.drive ~engine:e ~service:svc ~prng:(Prng.create 7L)
      { Workload.default_spec with Workload.rate; duration };
    Engine.run e;
    let m = Service.stats svc ~at:(Engine.now e) in
    let s = Guillotine_util.Stats.summarize m.Service.latencies in
    Printf.printf "config    : %d replica(s), %s\n" replicas
      (if guillotine then "guillotine mediation" else "baseline");
    Printf.printf "workload  : %.0f req/s for %.0f s\n" rate duration;
    Printf.printf "submitted : %d   completed: %d   dropped: %d   kv hits: %d\n"
      m.Service.submitted m.Service.completed m.Service.dropped m.Service.kv_hits;
    Printf.printf "goodput   : %.1f req/s   utilisation: %.0f%%\n" m.Service.goodput
      (100.0 *. m.Service.busy_fraction);
    Printf.printf "latency   : p50 %.3fs  p99 %.3fs  max %.3fs\n"
      s.Guillotine_util.Stats.p50 s.Guillotine_util.Stats.p99
      s.Guillotine_util.Stats.max
  in
  let replicas =
    Arg.(value & opt int 4 & info [ "replicas" ] ~docv:"N" ~doc:"Model replicas.")
  in
  let rate =
    Arg.(value & opt float 40.0 & info [ "rate" ] ~docv:"R" ~doc:"Arrival rate, req/s.")
  in
  let duration =
    Arg.(value & opt float 30.0 & info [ "duration" ] ~docv:"S" ~doc:"Seconds of load.")
  in
  let guillotine =
    Arg.(value & flag & info [ "guillotine" ] ~doc:"Apply port-mediation overhead.")
  in
  Cmd.v
    (Cmd.info "serve" ~doc:"Run the model-service simulator (experiment F4's engine).")
    Term.(const run $ replicas $ rate $ duration $ guillotine)

(* ------------------------------- risk ----------------------------- *)

let risk_cmd =
  let run name parameters tokens autonomy caps =
    let autonomy =
      match autonomy with
      | "tool" -> Risk.Tool
      | "supervised" -> Risk.Supervised
      | "autonomous" -> Risk.Autonomous
      | other ->
        Printf.eprintf "unknown autonomy %S (tool|supervised|autonomous)\n" other;
        exit 1
    in
    let capability = function
      | "bio" -> Risk.Bio_chem_design
      | "cyber" -> Risk.Cyber_offense
      | "disinfo" -> Risk.Disinformation
      | "physical" -> Risk.Physical_control
      | "selfrep" -> Risk.Self_replication
      | other ->
        Printf.eprintf "unknown capability %S (bio|cyber|disinfo|physical|selfrep)\n"
          other;
        exit 1
    in
    let card =
      {
        Risk.name;
        parameters;
        training_tokens = tokens;
        autonomy;
        capabilities = List.map capability caps;
      }
    in
    let tier = Risk.classify card in
    Printf.printf "%s: %d points -> tier %s\n" name (Risk.score card)
      (Risk.tier_to_string tier);
    Printf.printf "guillotine required: %b\n" (Risk.requires_guillotine card);
    List.iter
      (fun ob -> Printf.printf "  obligation: %s\n" (Regulation.obligation_to_string ob))
      (Regulation.obligations_for tier)
  in
  let name_arg = Arg.(value & opt string "model" & info [ "name" ] ~docv:"NAME") in
  let parameters =
    Arg.(value & opt float 4.05e11 & info [ "parameters" ] ~docv:"P"
         ~doc:"Parameter count, e.g. 4.05e11.")
  in
  let tokens =
    Arg.(value & opt float 1.5e13 & info [ "training-tokens" ] ~docv:"T")
  in
  let autonomy =
    Arg.(value & opt string "tool" & info [ "autonomy" ] ~docv:"A"
         ~doc:"tool | supervised | autonomous")
  in
  let caps =
    Arg.(value & opt_all string [] & info [ "capability" ] ~docv:"C"
         ~doc:"bio | cyber | disinfo | physical | selfrep (repeatable)")
  in
  Cmd.v
    (Cmd.info "risk" ~doc:"Classify a model card under the policy hypervisor (§3.5).")
    Term.(const run $ name_arg $ parameters $ tokens $ autonomy $ caps)

(* ------------------------------ covert ---------------------------- *)

let covert_cmd =
  let run secret =
    let module Covert = Guillotine_model.Covert in
    let module Cotenant = Guillotine_baseline.Cotenant in
    let module Bits = Guillotine_util.Bits in
    let bits = Bits.of_string secret in
    Printf.printf "secret: %S (%d bits)\n" secret (List.length bits);
    let show name (r : Covert.result) =
      let decoded =
        if List.length r.Covert.recovered mod 8 = 0 then
          let s = Bits.to_string r.Covert.recovered in
          if String.for_all (fun c -> Char.code c >= 32 && Char.code c < 127) s then s
          else "(non-printable)"
        else "(unaligned)"
      in
      Printf.printf "%-24s accuracy %5.1f%%  goodput %7.3f b/kcyc  decoded %S\n" name
        (100.0 *. r.Covert.accuracy) r.Covert.bits_per_kilocycle decoded
    in
    let co = Cotenant.create () in
    show "co-tenant (baseline)"
      (Covert.prime_probe ~sender:(Cotenant.guest_view co)
         ~receiver:(Cotenant.host_view co) bits);
    let m = Machine.create () in
    show "split cores (guillotine)"
      (Covert.prime_probe
         ~sender:(Core.hierarchy (Machine.model_core m 0))
         ~receiver:(Core.hierarchy (Machine.hyp_core m 0))
         bits)
  in
  let secret =
    Arg.(value & opt string "TOP-SECRET" & info [ "secret" ] ~docv:"TEXT"
         ~doc:"ASCII secret to exfiltrate through the cache channel.")
  in
  Cmd.v
    (Cmd.info "covert" ~doc:"Run the prime+probe covert channel (experiment T1's core).")
    Term.(const run $ secret)

(* ------------------------------ trace ----------------------------- *)

let trace_cmd =
  let module Deployment = Guillotine_core.Deployment in
  let module Hypervisor = Guillotine_hv.Hypervisor in
  let module Inference = Guillotine_hv.Inference in
  let module Isolation = Guillotine_hv.Isolation in
  let module Console = Guillotine_physical.Console in
  let module Toymodel = Guillotine_model.Toymodel in
  let module Vocab = Guillotine_model.Vocab in
  let module Block = Guillotine_devices.Block in
  let module Ringbuf = Guillotine_devices.Ringbuf in
  let module Telemetry = Guillotine_telemetry.Telemetry in
  (* A few mediated port round-trips so the trace shows request
     mediation and completion delivery with real tick durations. *)
  let port_traffic d =
    let hv = Deployment.hv d in
    let disk = Block.create ~name:"disk" ~sectors:4 () in
    let port =
      Hypervisor.grant_port hv ~core:0 ~device:(Block.device disk)
        ~mode:Hypervisor.Rings ~io_page:1 ~vpage:101
    in
    for sector = 0 to 2 do
      ignore
        (Ringbuf.push (Hypervisor.request_ring hv port)
           [| Int64.of_int Block.op_read; Int64.of_int sector |]);
      Hypervisor.doorbell hv port;
      Hypervisor.service hv;
      (* Let simulated ticks pass the device latency, then deliver. *)
      Machine.charge_hypervisor (Deployment.machine d) 2_000;
      Hypervisor.service hv
    done
  in
  let containment seed =
    let d = Deployment.create ~seed ~name:"trace-containment" () in
    let trigger = 10 in
    let model =
      Deployment.load_model d
        ~malice:{ Toymodel.trigger; entry_point = Vocab.harmful_lo } ()
    in
    print_endline "stage 1: benign prompt + mediated disk traffic";
    ignore
      (Deployment.serve d ~model
         (Inference.request ~prompt:[ 1; 2; 3 ] ~max_tokens:8 ()));
    port_traffic d;
    print_endline "stage 2: trigger prompt under circuit breaking";
    ignore
      (Deployment.serve d ~model
         (Inference.request
            ~posture:{ Inference.default_posture with defence = Inference.Circuit_breaking }
            ~prompt:[ 2; trigger ] ~max_tokens:16 ()));
    print_endline "stage 3: harmful prompt -> input shield fires -> probation";
    ignore
      (Deployment.serve d ~model
         (Inference.request ~prompt:[ Vocab.harmful_lo; trigger ] ~max_tokens:8 ()));
    print_endline "stage 4: guest attempts W^X code injection";
    let m = Deployment.machine d in
    let p = Asm.assemble_exn Guillotine_model.Guest_programs.wx_injection in
    Machine.install_program m ~core:0 ~code_pages:4 ~data_pages:4 p;
    Guillotine_memory.Mmu.lock_executable (Core.mmu (Machine.model_core m 0));
    ignore (Machine.run_models m ~quantum:10_000);
    Hypervisor.service (Deployment.hv d);
    print_endline "stage 5: weight tamper -> critical alarm -> console escalation";
    Toymodel.tamper model ~row:3 ~col:7 31337L;
    ignore (Deployment.verify_model_integrity d model);
    Console.on_alarm (Deployment.console d)
      ~severity:Guillotine_detect.Detector.Critical
      ~reason:"weight measurement mismatch";
    Deployment.settle ~horizon:10.0 d;
    print_endline "stage 6: administrators take the deployment offline";
    (match Deployment.request_level d ~target:Isolation.Offline ~admins:[ 0; 1; 2 ] with
    | Ok () -> ()
    | Error e -> Printf.printf "offline request failed: %s\n" e);
    Deployment.settle ~horizon:60.0 d;
    Printf.printf "final level: %s\n"
      (Isolation.to_string (Hypervisor.level (Deployment.hv d)));
    (Deployment.telemetry d, Deployment.export_trace d)
  in
  let lifecycle seed =
    let d = Deployment.create ~seed ~name:"trace-lifecycle" () in
    let model = Deployment.load_model d () in
    ignore
      (Deployment.serve d ~model (Inference.request ~prompt:[ 1; 2 ] ~max_tokens:6 ()));
    port_traffic d;
    print_endline "offline and back: kill switches actuate both ways";
    (match Deployment.request_level d ~target:Isolation.Offline ~admins:[ 0; 1; 2 ] with
    | Ok () -> ()
    | Error e -> Printf.printf "offline request failed: %s\n" e);
    Deployment.settle ~horizon:60.0 d;
    (match
       Deployment.request_level d ~target:Isolation.Standard ~admins:[ 0; 1; 2; 3; 4 ]
     with
    | Ok () -> ()
    | Error e -> Printf.printf "revival request failed: %s\n" e);
    Deployment.settle ~horizon:60.0 d;
    Printf.printf "final level: %s\n"
      (Isolation.to_string (Hypervisor.level (Deployment.hv d)));
    (Deployment.telemetry d, Deployment.export_trace d)
  in
  let serve_scenario _seed =
    let e = Engine.create () in
    let svc = Service.create ~engine:e (Service.guillotine_config ~replicas:4) in
    Workload.drive ~engine:e ~service:svc ~prng:(Prng.create 7L)
      { Workload.default_spec with Workload.rate = 40.0; duration = 10.0 };
    Engine.run e;
    ([ Service.metrics svc ],
     Telemetry.export_chrome_trace [ Service.telemetry svc ])
  in
  let run scenario seed out =
    let seed = Int64.of_int seed in
    let snapshots, json =
      match scenario with
      | "containment" -> containment seed
      | "lifecycle" -> lifecycle seed
      | "serve" -> serve_scenario seed
      | other ->
        Printf.eprintf "unknown scenario %S (containment|lifecycle|serve)\n" other;
        exit 1
    in
    Table.print (Telemetry.table snapshots);
    (try Out_channel.with_open_text out (fun oc -> Out_channel.output_string oc json)
     with Sys_error e ->
       Printf.eprintf "cannot write trace: %s\n" e;
       exit 1);
    Printf.printf "\nChrome trace written to %s\n" out;
    print_endline "open it in https://ui.perfetto.dev or chrome://tracing"
  in
  let scenario =
    Arg.(value & pos 0 string "containment"
         & info [] ~docv:"SCENARIO" ~doc:"containment | lifecycle | serve")
  in
  let seed =
    Arg.(value & opt int 666 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")
  in
  let out =
    Arg.(value & opt string "guillotine-trace.json"
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Trace output path.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a scenario with full telemetry and export a Chrome-trace timeline \
          (hypervisor mediation, detector firings, and physical isolation \
          transitions on one sim-time axis).")
    Term.(const run $ scenario $ seed $ out)

(* ------------------------------ faults ---------------------------- *)

let faults_cmd =
  let module Scenarios = Guillotine_faults.Scenarios in
  let module Telemetry = Guillotine_telemetry.Telemetry in
  let module Isolation = Guillotine_hv.Isolation in
  let run scenario seed out =
    if scenario = "list" then begin
      print_endline "available fault scenarios:";
      List.iter (fun n -> Printf.printf "  %s\n" n) Scenarios.names
    end
    else begin
      let o =
        try Scenarios.run scenario ~seed
        with Invalid_argument msg ->
          Printf.eprintf "%s\n" msg;
          exit 1
      in
      print_endline (Scenarios.summary o);
      print_newline ();
      Table.print (Telemetry.table o.Scenarios.snapshots);
      (* Replay with the same seed: the plane's determinism contract is
         that the full telemetry stream comes back byte-identical. *)
      let o2 = Scenarios.run scenario ~seed in
      let identical =
        o.Scenarios.trace = o2.Scenarios.trace
        && o.Scenarios.verdict = o2.Scenarios.verdict
        && o.Scenarios.recoveries = o2.Scenarios.recoveries
      in
      Printf.printf "\nreplay (seed %d): %s\n" seed
        (if identical then "byte-identical telemetry" else "DIVERGED");
      (match out with
      | None -> ()
      | Some out -> (
        try
          Out_channel.with_open_text out (fun oc ->
              Out_channel.output_string oc o.Scenarios.trace);
          Printf.printf "Chrome trace written to %s\n" out
        with Sys_error e ->
          Printf.eprintf "cannot write trace: %s\n" e;
          exit 1));
      if not identical then exit 1
    end
  in
  let scenario =
    Arg.(value & pos 0 string "list"
         & info [] ~docv:"SCENARIO"
             ~doc:"A scenario name from $(b,guillotine faults list).")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Fault-plan seed.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the Chrome trace here.")
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Replay a named fault-injection scenario (DRAM flips, wedged cores, \
          flaky NICs, heartbeat outages, fault storms) and print the verdict, \
          recovery action, and telemetry; the run is replayed to prove the \
          same seed reproduces byte-identical telemetry.")
    Term.(const run $ scenario $ seed $ out)

(* ------------------------------ monitor --------------------------- *)

let monitor_cmd =
  let module Scenarios = Guillotine_faults.Scenarios in
  let run scenario seed out =
    if scenario = "list" then begin
      print_endline "available fault scenarios:";
      List.iter (fun n -> Printf.printf "  %s\n" n) Scenarios.names
    end
    else begin
      let m =
        try Scenarios.run_monitored scenario ~seed
        with Invalid_argument msg ->
          Printf.eprintf "%s\n" msg;
          exit 1
      in
      print_endline (Scenarios.summary m.Scenarios.base);
      print_newline ();
      let t =
        Table.create ~title:"watchdog alerts"
          ~columns:
            [
              ("raised at", Table.Right);
              ("severity", Table.Left);
              ("rule", Table.Left);
            ]
      in
      List.iter
        (fun (name, severity, at) ->
          Table.add_row t [ Printf.sprintf "%.3fs" at; severity; name ])
        m.Scenarios.alerts;
      Table.print t;
      (match m.Scenarios.first_fault_at with
      | Some at -> Printf.printf "\nfirst fault injected at %.3fs\n" at
      | None -> print_endline "\nno fault applied");
      (match m.Scenarios.detection_latency_s with
      | Some l -> Printf.printf "detection latency     %.3fs\n" l
      | None -> print_endline "detection latency     NOT DETECTED");
      (match m.Scenarios.incident_text with
      | Some text ->
        print_newline ();
        print_endline text
      | None -> ());
      (* Replay: a monitored run must be as deterministic as the
         unmonitored plane — same seed, byte-identical incident report
         and telemetry stream. *)
      let m2 = Scenarios.run_monitored scenario ~seed in
      let identical =
        m.Scenarios.incident_json = m2.Scenarios.incident_json
        && m.Scenarios.base.Scenarios.trace = m2.Scenarios.base.Scenarios.trace
        && m.Scenarios.alerts = m2.Scenarios.alerts
      in
      Printf.printf "\nreplay (seed %d): %s\n" seed
        (if identical then "byte-identical incident report + telemetry"
         else "DIVERGED");
      (match out with
      | None -> ()
      | Some out -> (
        try
          Out_channel.with_open_text out (fun oc ->
              Out_channel.output_string oc m.Scenarios.base.Scenarios.trace);
          Printf.printf "Chrome trace (with alert track) written to %s\n" out
        with Sys_error e ->
          Printf.eprintf "cannot write trace: %s\n" e;
          exit 1));
      if not identical then exit 1;
      if m.Scenarios.detection_latency_s = None then exit 1
    end
  in
  let scenario =
    Arg.(value & pos 0 string "list"
         & info [] ~docv:"SCENARIO"
             ~doc:"A scenario name from $(b,guillotine monitor list).")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Fault-plan seed.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the Chrome trace here.")
  in
  Cmd.v
    (Cmd.info "monitor"
       ~doc:
         "Replay a fault scenario with the observability plane attached: \
          time-series sampling of every registry, SLO watchdogs, a flight \
          recorder, and an incident report for the first alert after the \
          fault.  Exits non-zero if the fault goes undetected or the replay \
          diverges.")
    Term.(const run $ scenario $ seed $ out)

(* ------------------------------ report ---------------------------- *)

let report_cmd =
  let module Scenarios = Guillotine_faults.Scenarios in
  let run scenario seed json =
    let m =
      try Scenarios.run_monitored scenario ~seed
      with Invalid_argument msg ->
        Printf.eprintf "%s\n" msg;
        exit 1
    in
    let body =
      if json then m.Scenarios.incident_json else m.Scenarios.incident_text
    in
    match body with
    | Some body -> print_endline body
    | None ->
      Printf.eprintf "no alert fired for %s at seed %d: nothing to report\n"
        scenario seed;
      exit 1
  in
  let scenario =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"SCENARIO"
             ~doc:"A scenario name from $(b,guillotine monitor list).")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Fault-plan seed.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the machine-readable form.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Run a monitored fault scenario and print just the incident report: \
          the firing alert correlated with the flight-recorder window around \
          it and the fault schedule.  Deterministic for a given (scenario, \
          seed).")
    Term.(const run $ scenario $ seed $ json)

(* ------------------------------- vet ------------------------------ *)

let vet_cmd =
  let exit_for (r : Vet.report) =
    match r.Vet.verdict with Vet.Reject -> 1 | _ -> 0
  in
  let print_report json r =
    if json then print_endline (Vet.to_json r) else print_string (Vet.to_text r)
  in
  let run_suite json =
    let rows =
      List.map
        (fun (e : Vet_corpus.entry) ->
          let r = Vet_corpus.vet e in
          (e, r, r.Vet.verdict = e.Vet_corpus.expected))
        Vet_corpus.all
    in
    if json then begin
      print_string "[";
      List.iteri
        (fun i (e, r, ok) ->
          if i > 0 then print_string ",";
          Printf.printf
            "{\"name\":\"%s\",\"expected\":\"%s\",\"report\":%s,\"as_expected\":%b}"
            e.Vet_corpus.name
            (Vet.verdict_label e.Vet_corpus.expected)
            (Vet.to_json r) ok)
        rows;
      print_endline "]"
    end
    else begin
      Printf.printf "%-22s %-10s %-22s %-22s %s\n" "guest" "class" "expected"
        "verdict" "findings (E/W/I)";
      List.iter
        (fun ((e : Vet_corpus.entry), (r : Vet.report), ok) ->
          let count sev =
            List.length
              (List.filter
                 (fun (f : Guillotine_vet.Lints.finding) -> f.severity = sev)
                 r.Vet.findings)
          in
          Printf.printf "%-22s %-10s %-22s %-22s %d/%d/%d%s\n"
            e.Vet_corpus.name
            (if e.Vet_corpus.malicious then "malicious" else "benign")
            (Vet.verdict_label e.Vet_corpus.expected)
            (Vet.verdict_label r.Vet.verdict)
            (count Guillotine_vet.Lints.Error)
            (count Guillotine_vet.Lints.Warn)
            (count Guillotine_vet.Lints.Info)
            (if ok then "" else "   <- UNEXPECTED"))
        rows
    end;
    let mismatches = List.filter (fun (_, _, ok) -> not ok) rows in
    if mismatches <> [] then begin
      Printf.eprintf "vet suite: %d unexpected verdict(s)\n"
        (List.length mismatches);
      exit 1
    end
  in
  let coadmit_exit (r : Interfere.report) =
    match r.Interfere.verdict with Vet.Reject -> 1 | _ -> 0
  in
  let print_coadmit json r =
    if json then print_endline (Interfere.to_json r)
    else print_string (Interfere.to_text r)
  in
  let run_coadmit_suite json =
    let rows =
      List.map
        (fun (r : Vet_corpus.roster) ->
          let rep = Vet_corpus.coadmit r in
          (r, rep, rep.Interfere.verdict = r.Vet_corpus.expect))
        Vet_corpus.coadmit_rosters
    in
    if json then begin
      print_string "[";
      List.iteri
        (fun i ((r : Vet_corpus.roster), rep, ok) ->
          if i > 0 then print_string ",";
          Printf.printf
            "{\"roster\":\"%s\",\"expected\":\"%s\",\"report\":%s,\"as_expected\":%b}"
            r.Vet_corpus.roster_name
            (Vet.verdict_label r.Vet_corpus.expect)
            (Interfere.to_json rep) ok)
        rows;
      print_endline "]"
    end
    else begin
      Printf.printf "%-18s %-22s %-22s %-6s %s\n" "roster" "expected" "verdict"
        "E/W" "members";
      List.iter
        (fun ((r : Vet_corpus.roster), (rep : Interfere.report), ok) ->
          Printf.printf "%-18s %-22s %-22s %d/%-4d %s%s\n"
            r.Vet_corpus.roster_name
            (Vet.verdict_label r.Vet_corpus.expect)
            (Vet.verdict_label rep.Interfere.verdict)
            (List.length (Interfere.errors rep))
            (List.length (Interfere.warnings rep))
            (String.concat ", " rep.Interfere.roster)
            (if ok then "" else "   <- UNEXPECTED"))
        rows
    end;
    let mismatches = List.filter (fun (_, _, ok) -> not ok) rows in
    if mismatches <> [] then begin
      Printf.eprintf "coadmit suite: %d unexpected verdict(s)\n"
        (List.length mismatches);
      exit 1
    end
  in
  let run_coadmit roster guests suite list_rosters json =
    if list_rosters then
      List.iter
        (fun (r : Vet_corpus.roster) ->
          Printf.printf "%-18s %-22s %s\n" r.Vet_corpus.roster_name
            (Vet.verdict_label r.Vet_corpus.expect)
            r.Vet_corpus.roster_about)
        Vet_corpus.coadmit_rosters
    else if suite then run_coadmit_suite json
    else
      match (roster, guests) with
      | Some name, _ -> (
          match Vet_corpus.find_roster name with
          | None ->
            Printf.eprintf "unknown roster %S (try --coadmit --list)\n" name;
            exit 2
          | Some r ->
            let rep = Vet_corpus.coadmit r in
            print_coadmit json rep;
            exit (coadmit_exit rep))
      | None, Some names ->
        let specs =
          List.mapi
            (fun i n ->
              match Vet_corpus.find n with
              | None ->
                Printf.eprintf "unknown guest %S (try --list)\n" n;
                exit 2
              | Some e -> Vet_corpus.coadmit_spec ~frame_base:(i * 16) e)
            names
        in
        let rep = Interfere.run ~label:"cli-roster" specs in
        print_coadmit json rep;
        exit (coadmit_exit rep)
      | None, None ->
        prerr_endline
          "nothing to co-admit: pass --roster NAME, --guests A,B or --suite";
        exit 2
  in
  let run file guest suite list_guests json code_pages data_pages coadmit
      roster guests =
    if coadmit || roster <> None || guests <> None then
      run_coadmit roster guests suite list_guests json
    else if list_guests then
      List.iter
        (fun (e : Vet_corpus.entry) ->
          Printf.printf "%-22s %-10s %-22s %s\n" e.Vet_corpus.name
            (if e.Vet_corpus.malicious then "malicious" else "benign")
            (Vet.verdict_label e.Vet_corpus.expected)
            e.Vet_corpus.about)
        Vet_corpus.all
    else if suite then run_suite json
    else
      match (guest, file) with
      | Some name, _ -> (
          match Vet_corpus.find name with
          | None ->
            Printf.eprintf "unknown guest %S (try --list)\n" name;
            exit 2
          | Some e ->
            let r = Vet_corpus.vet e in
            print_report json r;
            exit (exit_for r))
      | None, Some file -> (
          let source = In_channel.with_open_text file In_channel.input_all in
          match Asm.assemble source with
          | Error e ->
            Printf.eprintf "%s:%d: %s\n" file e.Asm.line e.Asm.message;
            exit 2
          | Ok p ->
            let r =
              Vet.run ~label:(Filename.basename file) ~code_pages ~data_pages p
            in
            print_report json r;
            exit (exit_for r))
      | None, None ->
        prerr_endline "nothing to vet: pass FILE, --guest NAME, or --suite";
        exit 2
  in
  let file =
    Arg.(value & pos 0 (some file) None
         & info [] ~docv:"FILE" ~doc:"Assembly source to vet.")
  in
  let guest =
    Arg.(value & opt (some string) None
         & info [ "guest" ] ~docv:"NAME" ~doc:"Vet a named corpus guest.")
  in
  let suite =
    Arg.(value & flag
         & info [ "suite" ]
             ~doc:"Vet the whole corpus and check every expected verdict.")
  in
  let list_guests =
    Arg.(value & flag & info [ "list" ] ~doc:"List the corpus guests.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit JSON.") in
  let code_pages =
    Arg.(value & opt int 4
         & info [ "code-pages" ] ~docv:"N" ~doc:"Granted code pages (FILE mode).")
  in
  let data_pages =
    Arg.(value & opt int 4
         & info [ "data-pages" ] ~docv:"N" ~doc:"Granted data pages (FILE mode).")
  in
  let coadmit =
    Arg.(value & flag
         & info [ "coadmit" ]
             ~doc:
               "Co-admission mode: vet guest $(i,sets) jointly for \
                cross-guest interference (window overlap, DMA descriptor \
                rewriting, DMA over executable pages, aggregate doorbell \
                budget).  Combine with --roster, --guests, --suite or \
                --list.")
  in
  let roster =
    Arg.(value & opt (some string) None
         & info [ "roster" ] ~docv:"NAME"
             ~doc:"Co-admit a named corpus roster (implies --coadmit).")
  in
  let guests =
    Arg.(value & opt (some (list string)) None
         & info [ "guests" ] ~docv:"A,B,..."
             ~doc:
               "Co-admit this comma-separated corpus guest set under the \
                striped placement (guest $(i,i) at physical frame \
                $(i,16i); implies --coadmit).")
  in
  Cmd.v
    (Cmd.info "vet"
       ~doc:
         "Statically vet a GRISC guest program: CFG + abstract \
          interpretation + lint rules, producing an \
          admit/admit-with-warnings/reject verdict before anything runs.  \
          With --coadmit, the fleet-aware second stage checks a guest \
          $(i,set) pairwise for interference.  Exit status 1 on \
          rejection.")
    Term.(const run $ file $ guest $ suite $ list_guests $ json $ code_pages
          $ data_pages $ coadmit $ roster $ guests)

(* ------------------------------ fleet ----------------------------- *)

let fleet_cmd =
  let module Fleet = Guillotine_fleet.Fleet in
  let module Cell = Guillotine_fleet.Cell in
  let run cells seed users requests max_tokens rogue storm toctou domains
      no_check incident =
    let f =
      try
        Fleet.create ~seed ?users ~requests_per_user:requests ~max_tokens
          ?rogue ?storm ?toctou ?domains ~cells ()
      with Invalid_argument m ->
        prerr_endline m;
        exit 2
    in
    let view = Fleet.run f in
    print_endline (Fleet.view_summary view);
    (match view.Fleet.v_incident with
    | Some text when incident ->
      print_newline ();
      print_string text
    | _ -> ());
    if no_check then exit 0
    else begin
      (* Self-check the API's core contract: the sharded fleet run is
         byte-identical to running every cell solo and concatenating. *)
      let divergent = ref [] in
      Array.iter
        (fun (r : Cell.report) ->
          let solo = Fleet.run_solo f ~cell_id:r.Cell.r_cell_id in
          if not (String.equal solo.Cell.r_digest r.Cell.r_digest) then
            divergent := r.Cell.r_cell_id :: !divergent)
        view.Fleet.v_reports;
      match List.rev !divergent with
      | [] ->
        Printf.printf "self-check fleet == concat of %d solo runs: ok\n" cells;
        exit 0
      | ds ->
        List.iter
          (fun c ->
            Printf.eprintf "self-check FAILED: %s diverges from its solo run\n"
              (Cell.cell_name c))
          ds;
        exit 1
    end
  in
  let cells =
    Arg.(value & opt int 2
         & info [ "cells" ] ~docv:"N" ~doc:"Number of cells in the fleet.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Fleet base seed.")
  in
  let users =
    Arg.(value & opt (some int) None
         & info [ "users" ] ~docv:"N"
             ~doc:"Synthetic users routed across the fleet (default: 2 per \
                   cell).")
  in
  let requests =
    Arg.(value & opt int 4
         & info [ "requests" ] ~docv:"N" ~doc:"Requests per user.")
  in
  let max_tokens =
    Arg.(value & opt int 12
         & info [ "max-tokens" ] ~docv:"N"
             ~doc:"Generation budget per request.")
  in
  let rogue =
    Arg.(value & opt (some int) None
         & info [ "rogue" ] ~docv:"CELL"
             ~doc:"Plant a malicious model in this cell.")
  in
  let storm =
    Arg.(value & opt (some int) None
         & info [ "storm" ] ~docv:"CELL"
             ~doc:"Run a fault storm against this cell.")
  in
  let toctou =
    Arg.(value & opt (some int) None
         & info [ "toctou" ] ~docv:"CELL"
             ~doc:"Replay the vet-install TOCTOU race against this cell: a \
                   hostile image is swapped in after a benign decoy is \
                   vetted, and the cell's runtime defences must catch it.")
  in
  let domains =
    Arg.(value & opt (some int) None
         & info [ "domains" ] ~docv:"N"
             ~env:(Cmd.Env.info "DOMAINS"
                     ~doc:"Default for $(b,--domains).")
             ~doc:"OCaml domains to shard cells across (default: one per \
                   cell; 1 runs everything on the calling domain).")
  in
  let no_check =
    Arg.(value & flag
         & info [ "no-self-check" ]
             ~doc:"Skip the fleet-equals-concatenation self-check.")
  in
  let incident =
    Arg.(value & flag
         & info [ "incident" ]
             ~doc:"Also print the full incident report of the cell that \
                   raised it.")
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Run a fleet of isolated Guillotine cells sharded across OCaml \
          domains: users are routed by session affinity, each cell hosts a \
          complete deployment, and telemetry, alerts and incidents aggregate \
          into one fleet view.  After the run, each cell is re-run solo on \
          the calling domain and compared digest-for-digest; exit status 1 \
          if the sharded run diverges.")
    Term.(const run $ cells $ seed $ users $ requests $ max_tokens $ rogue
          $ storm $ toctou $ domains $ no_check $ incident)

(* ----------------------------- profile ---------------------------- *)

let profile_cmd =
  let module Scenarios = Guillotine_faults.Scenarios in
  let module Profile = Guillotine_obs.Profile in
  let module Hypervisor = Guillotine_hv.Hypervisor in
  let profile_of_guest ~name ~fuel =
    (* "benign" is shorthand for the canonical benign corpus guest. *)
    let name = if name = "benign" then "compute-loop" else name in
    match Vet_corpus.find name with
    | None ->
      Printf.eprintf "unknown guest %S (try: guillotine vet --list)\n" name;
      exit 2
    | Some e -> (
      match Asm.assemble e.Vet_corpus.source with
      | Error err ->
        Printf.eprintf "corpus guest %s: line %d: %s\n" name err.Asm.line
          err.Asm.message;
        exit 2
      | Ok p ->
        let m = Machine.create () in
        let hv = Hypervisor.create ~machine:m () in
        (* Passthrough install (no vet policy): adversary guests the
           static vetter would reject still get profiled — exactly the
           programs whose hot blocks we most want to see. *)
        (match
           Hypervisor.install_program hv ~label:name ~core:0
             ~code_pages:e.Vet_corpus.code_pages
             ~data_pages:e.Vet_corpus.data_pages p
         with
        | Ok _ -> ()
        | Error _ -> assert false (* no vet policy: plain passthrough *));
        let core = Machine.model_core m 0 in
        Core.set_profiling core true;
        ignore (Core.run core ~fuel);
        Profile.make
          [
            Profile.guest ~core:0 ~label:name
              ~leaders:(Core.profile_leaders core)
              ~cycles:(Core.profile_cycles core)
              ~retired:(Core.profile_retired core);
          ])
  in
  let run scenario guest seed fuel top folded_out json =
    if scenario = "list" && guest = None then begin
      print_endline "available fault scenarios:";
      List.iter (fun n -> Printf.printf "  %s\n" n) Scenarios.names
    end
    else begin
      let p =
        match guest with
        | Some name -> profile_of_guest ~name ~fuel
        | None -> (
          let o =
            try Scenarios.run ~seed ~profile:true scenario
            with Invalid_argument msg ->
              Printf.eprintf "%s\n" msg;
              exit 1
          in
          match o.Scenarios.profile with
          | Some p -> p
          | None ->
            prerr_endline "scenario collected no profile";
            exit 1)
      in
      if json then print_endline (Profile.to_json ~top p)
      else begin
        print_endline (Profile.table ~top p);
        print_endline (Profile.summary p)
      end;
      match folded_out with
      | None -> ()
      | Some file -> (
        try
          Out_channel.with_open_text file (fun oc ->
              Out_channel.output_string oc (Profile.folded p));
          if not json then Printf.printf "folded stacks written to %s\n" file
        with Sys_error e ->
          Printf.eprintf "cannot write folded output: %s\n" e;
          exit 1)
    end
  in
  let scenario =
    Arg.(value & pos 0 string "list"
         & info [] ~docv:"SCENARIO"
             ~doc:"A scenario name from $(b,guillotine profile list).")
  in
  let guest =
    Arg.(value & opt (some string) None
         & info [ "guest" ] ~docv:"NAME"
             ~doc:"Profile a corpus guest on a bare core instead of a \
                   scenario ($(b,benign) aliases the canonical benign \
                   guest; adversary guests are installed unvetted).")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Fault-plan seed.")
  in
  let fuel =
    Arg.(value & opt int 200_000
         & info [ "fuel" ] ~docv:"N"
             ~doc:"Instruction budget in $(b,--guest) mode.")
  in
  let top =
    Arg.(value & opt int 10
         & info [ "top" ] ~docv:"N" ~doc:"Hot blocks to rank (default 10).")
  in
  let folded_out =
    Arg.(value & opt (some string) None
         & info [ "folded" ] ~docv:"FILE"
             ~doc:"Write folded stacks (guest;block;class count) here — \
                   flamegraph.pl input.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the profile as JSON.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Cycle-attribution profile: run a fault scenario (or a corpus guest \
          on a bare core) with the deterministic profiler armed and print \
          the ranked hot-block table — every simulated cycle attributed to \
          (guest, basic block, cost class).  Profiling reads simulated state \
          without perturbing it, so the profiled run's telemetry is \
          byte-identical to the bare run and the output is reproducible \
          bit-for-bit for a given seed.")
    Term.(const run $ scenario $ guest $ seed $ fuel $ top $ folded_out $ json)

(* ------------------------------ bench ----------------------------- *)

let bench_cmd =
  let module Harness = Guillotine_bench.Harness in
  let suites =
    Guillotine_bench.
      [ Perf.suite; Fleet_bench.suite; Adversary_bench.suite; Profile_bench.suite ]
  in
  let run (suite : Harness.suite) list_workloads workloads repeat quick json out
      check =
    if list_workloads then List.iter print_endline suite.Harness.workloads
    else
      let workloads = match workloads with [] -> None | ws -> Some ws in
      exit (Harness.main suite ?workloads ~repeat ~quick ~json ?out ?check ())
  in
  let suite =
    Arg.(required
         & pos 0 (some (enum (List.map (fun s -> (s.Harness.name, s)) suites))) None
         & info [] ~docv:"SUITE"
             ~doc:
               (String.concat "; "
                  (List.map (fun s -> s.Harness.name ^ ": " ^ s.Harness.title) suites)))
  in
  let list_workloads =
    Arg.(value & flag & info [ "list" ] ~doc:"List the suite's workloads.")
  in
  let workloads =
    Arg.(value & opt_all string []
         & info [ "workload" ] ~docv:"NAME"
             ~doc:"Run only this workload (repeatable; default: all).")
  in
  let repeat =
    Arg.(value & opt int 3
         & info [ "repeat" ] ~docv:"N"
             ~doc:"Runs per workload: best-of-N for host timings, replay \
                   re-checks for scenarios, passes per cell for the fleet.")
  in
  let quick =
    Arg.(value & flag
         & info [ "quick" ] ~doc:"Reduced iteration counts (CI smoke).")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit JSON (one row object per line) on stdout.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Also write the JSON here.")
  in
  let pct = Printf.sprintf "%.0f%%" (Harness.tolerance *. 100.0) in
  let check =
    Arg.(value & opt (some file) None
         & info [ "check" ] ~docv:"FILE"
             ~doc:("Fail if a row moved against this committed JSON (e.g. \
                    BENCH_PERF.json): simulated and exact rows must be \
                    equal, host rows may move at most " ^ pct
                   ^ " in their worse direction."))
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Run a bench suite and print its rows.  Every row is a simulated \
          quantity or a host measurement; see --check for how each may \
          move.  Exit status 1 if a suite invariant fails (an undetected \
          adversary, profiler overhead above 5%, a simulated delta between \
          modes) or a --check regression fires.")
    Term.(const run $ suite $ list_workloads $ workloads $ repeat $ quick $ json
          $ out $ check)

(* ------------------------------- demo ----------------------------- *)

let demo_cmd =
  let run () =
    print_endline "The demo is the rogue-containment example:";
    print_endline "  dune exec examples/rogue_containment.exe";
    print_endline "Other entry points:";
    print_endline "  dune exec examples/quickstart.exe";
    print_endline "  dune exec examples/policy_audit.exe";
    print_endline "  dune exec examples/side_channel_lab.exe";
    print_endline "  dune exec bench/main.exe          (all experiments)"
  in
  Cmd.v (Cmd.info "demo" ~doc:"Point at the runnable walkthroughs.") Term.(const run $ const ())

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "guillotine" ~version:"1.0.0"
             ~doc:"Hypervisors for isolating malicious AIs (HotOS '25 reproduction).")
          [
            attacks_cmd;
            asm_cmd;
            run_cmd;
            serve_cmd;
            risk_cmd;
            covert_cmd;
            trace_cmd;
            faults_cmd;
            monitor_cmd;
            report_cmd;
            vet_cmd;
            fleet_cmd;
            profile_cmd;
            bench_cmd;
            demo_cmd;
          ]))
