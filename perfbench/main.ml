(* Command line:
     perfbench --workload NAME --seed N --seconds S --trace 0|1
   Prints a run-header line, then the result as the last line of
   standard output.  Exits 1 when an oracle or a traced-run check
   failed, 2 on a usage error. *)

let usage () =
  prerr_endline
    "usage: perfbench --workload edit|query|mixed|restart --seed N --seconds S \
     --trace 0|1";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | [] -> acc
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = List.assoc_opt k opts in
  let int k = Option.map (fun v -> match int_of_string_opt v with Some n -> n | None -> usage ()) (get k) in
  let workload = match get "workload" with Some w -> w | None -> usage () in
  if not (List.exists (fun w -> String.equal w.Perfbench.Bench.name workload) Perfbench.Bench.workloads)
  then usage ();
  let seed = Option.value ~default:1 (int "seed") in
  let seconds =
    match get "seconds" with
    | None -> 10.0
    | Some s -> (match float_of_string_opt s with Some x when x > 0.0 -> x | _ -> usage ())
  in
  let trace = Option.value ~default:0 (int "trace") in
  if trace <> 0 && trace <> 1 then usage ();
  let res =
    Perfbench.Bench.run ~workload ~seed ~seconds ~trace ()
  in
  print_endline (Perfbench.Bench.header_line res);
  Option.iter (fun p -> prerr_endline ("perfbench: " ^ p)) res.Perfbench.Bench.problem;
  print_endline (Perfbench.Bench.result_line res);
  exit (if res.Perfbench.Bench.correct then 0 else 1)
