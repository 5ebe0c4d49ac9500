(* Benchmark harness entry point.

   Usage:
     dune exec bench/main.exe            # all experiments + micro
     dune exec bench/main.exe t1 f4      # a subset
     dune exec bench/main.exe micro      # microbenchmarks only
     dune exec bench/main.exe perf       # host-perf suite (P1); the
                                         # CLI flags live on
                                         # `guillotine bench perf`

   Each experiment id corresponds to a row of DESIGN.md's experiment
   index; the output tables are recorded in EXPERIMENTS.md. *)

let banner () =
  print_endline "=====================================================================";
  print_endline " GUILLOTINE reproduction benchmark suite (HotOS 2025)";
  print_endline " One table per experiment; see DESIGN.md for the index and";
  print_endline " EXPERIMENTS.md for interpretation against the paper's claims.";
  print_endline "====================================================================="

let run_one id =
  match List.assoc_opt id Experiments.all with
  | Some f ->
    print_newline ();
    f ();
    true
  | None when id = "micro" ->
    print_newline ();
    Micro.run ();
    true
  | None when id = "perf" ->
    print_newline ();
    ignore Guillotine_bench.(Harness.main Perf.suite ());
    true
  | None ->
    Printf.eprintf "unknown experiment %S; known: %s micro perf\n" id
      (String.concat " " (List.map fst Experiments.all));
    false

let () =
  banner ();
  let args = List.tl (Array.to_list Sys.argv) in
  let ok =
    match args with
    | [] ->
      List.iter
        (fun (_, f) ->
          print_newline ();
          f ())
        Experiments.all;
      print_newline ();
      Micro.run ();
      true
    | ids -> List.for_all run_one ids
  in
  if not ok then exit 1
