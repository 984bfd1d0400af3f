module FM = Ltree_recovery.Fault_matrix
module Fault = Ltree_recovery.Fault
module Durable_doc = Ltree_recovery.Durable_doc
module Labeled_doc = Ltree_doc.Labeled_doc
module Journal = Ltree_doc.Journal

(* Monomorphic comparison prelude (lint rule R2). *)
let ( = ) : int -> int -> bool = Stdlib.( = )
let ( < ) : int -> int -> bool = Stdlib.( < )
let ( > ) : int -> int -> bool = Stdlib.( > )
let ( <= ) : int -> int -> bool = Stdlib.( <= )
let ( >= ) : int -> int -> bool = Stdlib.( >= )

(* Pumps allowed for a replica to drain a whole backlog: generous — a
   parked shipper or converged replica exits the loop early anyway. *)
let quiesce_bound (config : FM.config) = 512 + (8 * config.ops)

type site = Primary | Replica | Channel

let grammar =
  { FM.sites = [ Primary; Replica; Channel ];
    prefix =
      (function
        | Primary -> "primary:"
        | Replica -> "replica:"
        | Channel -> "channel:");
    unit = (function Primary | Replica -> 'P' | Channel -> 'C');
    probes = [ "probe:divergence" ] }

type outcome =
  | Promoted of { applied : int; attempted : int }
  | Reattached of FM.recovery
  | Resynced
  | No_pair
  | Diverged_detected
  | Incomplete of { detail : string }

type summary = (site, outcome) FM.summary

let describe (s : summary) =
  Printf.sprintf
    "replica matrix: %d cells (%s, x%d modes, + divergence probe): %s"
    (List.length s.FM.cells)
    (String.concat " + "
       (List.map
          (fun (site, e) ->
            Printf.sprintf "%d %s" e.FM.points
              (match site with
               | Primary -> "primary pts"
               | Replica -> "replica pts"
               | Channel -> "channel sends"))
          s.FM.extents))
    (List.length Fault.all_modes)
    (if s.FM.failed_cells = 0 then "all verified"
     else Printf.sprintf "%d FAILED" s.FM.failed_cells)

(* {1 The scripted session} *)

let session_config (config : FM.config) ~down_plan =
  { Session.default_config with
    Session.group_commit = config.group_commit;
    replica_group_commit = config.group_commit;
    checkpoint_every = config.checkpoint_every;
    down_plan }

type run_result =
  | Completed of Session.t
  | Crashed_in_create of { point : int }
  | Crashed_in_apply of { session : Session.t; index : int }
  | Crashed_in_quiesce of { session : Session.t }

(* One scripted run: create the pair, apply the whole script, quiesce.
   Everything is deterministic, so an armed cell replays the exact clean
   run up to its trigger. *)
let run_scripted config ~psim ~rsim ~down_plan ?on_created script =
  let sc = session_config config ~down_plan in
  match
    Session.create ~config:sc ~primary_io:(Fault.sim_io psim)
      ~primary_dir:"p" ~replica_io:(Fault.sim_io rsim) ~replica_dir:"r"
      (FM.base_ldoc config)
  with
  | exception Fault.Crash { point; _ } -> Crashed_in_create { point }
  | session ->
    (match on_created with None -> () | Some f -> f session);
    let rec go i = function
      | [] -> (
        match Session.quiesce ~max_pumps:(quiesce_bound config) session with
        | (_ : bool) -> Completed session
        | exception Fault.Crash _ -> Crashed_in_quiesce { session })
      | entry :: rest -> (
        match Session.apply session entry with
        | () -> go (i + 1) rest
        | exception Fault.Crash _ -> Crashed_in_apply { session; index = i })
    in
    go 0 script

(* The uninjected run: the primary's and replica's write points and the
   down-channel's sends. *)
let profile_run config script =
  let psim = Fault.create_sim () and rsim = Fault.create_sim () in
  let p_init = ref 0 and r_init = ref 0 in
  match
    run_scripted config ~psim ~rsim ~down_plan:Channel.ideal
      ~on_created:(fun _ ->
        p_init := Fault.points psim;
        r_init := Fault.points rsim)
      script
  with
  | Completed session ->
    if not (Session.caught_up session) then
      invalid_arg "Repl_matrix: uninjected profile run did not converge";
    ( { FM.points = Fault.points psim; init_points = !p_init },
      { FM.points = Fault.points rsim; init_points = !r_init },
      { FM.points = (Channel.stats (Session.down session)).Channel.sent;
        init_points = 0 } )
  | Crashed_in_create _ | Crashed_in_apply _ | Crashed_in_quiesce _ ->
    invalid_arg "Repl_matrix: uninjected profile run crashed"

(* {1 Cells} *)

(* Primary crash: kill the primary at write point [p], fail over, and
   check the promoted replica is a bit-exact oracle prefix no longer
   than what the primary ever attempted. *)
let eval_primary config ~script ~oracle ~init_points point mode =
  let plan = { Fault.crash_point = point; mode; seed = config.FM.seed } in
  let psim = Fault.create_sim ~plan () in
  let rsim = Fault.create_sim () in
  let promote session ~attempted =
    let now = Session.clock session in
    Channel.sever (Session.down session) ~now;
    Channel.sever (Session.up session) ~now;
    let old_epoch = Durable_doc.epoch (Session.primary session) in
    (* Drain what already reached the replica's buffer before deciding,
       as a real failover drains its socket. *)
    Replica.pump (Session.replica session) ~now:(now + 1);
    match Session.failover session with
    | Error e ->
      let detail = Format.asprintf "%a" Replica.pp_error e in
      ( Incomplete { detail },
        [ Printf.sprintf "failover refused: %s" detail ] )
    | Ok (_report, promoted) ->
      let applied = Durable_doc.last_seq promoted in
      let bound =
        if applied < 0 || applied > attempted then
          [ Printf.sprintf "promoted store at seq %d, outside [0, \
                            attempted %d]" applied attempted ]
        else []
      in
      let epoch =
        if Durable_doc.epoch promoted <= old_epoch then
          [ Printf.sprintf "promoted epoch %d not above the dead \
                            primary's %d"
              (Durable_doc.epoch promoted) old_epoch ]
        else []
      in
      ( Promoted { applied; attempted },
        bound @ epoch
        @ FM.verify_store ~what:"promoted store" ~io:(Fault.sim_io rsim)
            ~dir:"r" oracle ~prefix:applied promoted )
  in
  match run_scripted config ~psim ~rsim ~down_plan:Channel.ideal script with
  | Completed _ ->
    ( Incomplete { detail = "primary did not crash" },
      [ Printf.sprintf "primary did not crash at in-range point %d" point ] )
  | Crashed_in_create { point = at } ->
    (* The pair never finished establishing — nothing to promote.
       Legitimate only while the primary was still laying down its own
       initial files and the bootstrap snapshot. *)
    ( No_pair,
      if point <= init_points then []
      else
        [ Printf.sprintf
            "session establishment crashed at point %d (init ends at %d)"
            at init_points ] )
  | Crashed_in_apply { session; index } ->
    promote session ~attempted:(index + 1)
  | Crashed_in_quiesce { session } -> promote session ~attempted:config.ops

(* Replica crash: kill the replica's store at write point [p], recover
   it from its own surviving files, re-attach it to the live session,
   finish the script, and check the replica converges to the full
   oracle. *)
let eval_replica config ~script ~oracle ~init_points point mode =
  let plan = { Fault.crash_point = point; mode; seed = config.FM.seed } in
  let psim = Fault.create_sim () in
  let rsim = Fault.create_sim ~plan () in
  match run_scripted config ~psim ~rsim ~down_plan:Channel.ideal script with
  | Completed _ ->
    ( Incomplete { detail = "replica did not crash" },
      [ Printf.sprintf "replica did not crash at in-range point %d" point ] )
  | crash ->
    let session, attempted =
      match crash with
      | Crashed_in_apply { session; index } -> (Some session, index + 1)
      | Crashed_in_quiesce { session } -> (Some session, config.ops)
      | Crashed_in_create _ | Completed _ -> (None, 0)
    in
    (* The replica's durable prefix is bounded by what the primary had
       started; nothing tracks a tighter synced floor. *)
    let b = { FM.attempted; synced = 0 } in
    let reattach io _durable store =
      match session with
      | None ->
        (* Crash during establishment: no session survives to re-attach
           to; the recovered prefix itself must still verify. *)
        []
      | Some session -> (
        let (_ : Replica.t) = Session.replace_replica ~io ~store session in
        List.iteri
          (fun i e -> if i >= attempted then Session.apply session e)
          script;
        let caught =
          Session.quiesce ~max_pumps:(quiesce_bound config) session
        in
        (if caught then []
         else [ "replica failed to catch up after re-attach" ])
        @
        match Replica.store (Session.replica session) with
        | None -> [ "re-attached replica has no store" ]
        | Some t ->
          FM.verify_store ~what:"re-attached replica" ~io ~dir:"r" oracle
            ~prefix:config.ops t)
    in
    let recovery, failures =
      FM.recover_crashed config ~what:"replica" ~dir:"r" ~sim:rsim
        ~crashed:true ~point ~init_points b ~check:reattach oracle
    in
    (Reattached recovery, failures)

(* Channel sever: cut the stream at the [n]th chunk (damaged per the
   mode), let the shipper burn its retries, reconnect, and check the
   replica fully resyncs. *)
let eval_channel config ~script ~oracle n mode =
  let psim = Fault.create_sim () and rsim = Fault.create_sim () in
  let down_plan =
    { Channel.ideal with
      Channel.seed = config.FM.seed; sever_at = Some (n, mode) }
  in
  match run_scripted config ~psim ~rsim ~down_plan script with
  | Crashed_in_create _ | Crashed_in_apply _ | Crashed_in_quiesce _ ->
    ( Incomplete { detail = "unexpected crash" },
      [ "unarmed stores crashed in a channel cell" ] )
  | Completed session ->
    let severed =
      if Channel.severed (Session.down session) then []
      else [ Printf.sprintf "channel sever at send %d never triggered" n ]
    in
    Session.reconnect session;
    let resynced =
      if Session.quiesce ~max_pumps:(quiesce_bound config) session then []
      else [ "replica failed to resync after reconnect" ]
    in
    ( Resynced,
      severed @ resynced
      @
      match Replica.store (Session.replica session) with
      | None -> [ "replica unbootstrapped after resync" ]
      | Some t ->
        FM.verify_store ~what:"resynced replica" ~io:(Fault.sim_io rsim)
          ~dir:"r" oracle ~prefix:config.ops t )

(* Divergence probe: a rogue write sneaks into the replica's store
   outside the stream mid-run; the handshake discipline must detect it,
   and both reads and promotion must refuse. *)
let eval_probe config ~script =
  let psim = Fault.create_sim () and rsim = Fault.create_sim () in
  let sc = session_config config ~down_plan:Channel.ideal in
  let session =
    Session.create ~config:sc ~primary_io:(Fault.sim_io psim)
      ~primary_dir:"p" ~replica_io:(Fault.sim_io rsim) ~replica_dir:"r"
      (FM.base_ldoc config)
  in
  let half = List.length script / 2 in
  let first = List.filteri (fun i _ -> i < half) script in
  let rest = List.filteri (fun i _ -> i >= half) script in
  List.iter (Session.apply session) first;
  let fails = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> fails := s :: !fails) fmt in
  if not (Session.quiesce ~max_pumps:(quiesce_bound config) session) then
    fail "healthy half-script run did not converge";
  let replica = Session.replica session in
  (match Replica.store replica with
   | None -> fail "replica unbootstrapped before the rogue write"
   | Some rstore ->
     let rldoc = Durable_doc.ldoc rstore in
     (match (Labeled_doc.document rldoc).Ltree_xml.Dom.root with
      | None -> fail "replica document has no root"
      | Some root ->
        let anchor = (Labeled_doc.label rldoc root).Labeled_doc.start_pos in
        Durable_doc.apply rstore
          (Journal.Insert { anchor; index = 0; xml = "<rogue/>" });
        List.iter (Session.apply session) rest;
        ignore (Session.quiesce ~max_pumps:(quiesce_bound config) session);
        (match Replica.diverged replica with
         | Some _ -> ()
         | None -> fail "rogue write not detected");
        (match Replica.read replica (fun _ -> ()) with
         | Error (Replica.Diverged _) -> ()
         | Ok () -> fail "diverged replica served a read"
         | Error e ->
           fail "diverged read refused with the wrong error: %s"
             (Format.asprintf "%a" Replica.pp_error e));
        (match Replica.promote replica with
         | Error (Replica.Diverged _) -> ()
         | Ok _ -> fail "diverged replica accepted promotion"
         | Error e ->
           fail "diverged promote refused with the wrong error: %s"
             (Format.asprintf "%a" Replica.pp_error e))));
  (Diverged_detected, List.rev !fails)

(* {1 The topology} *)

let run ?pool ?progress ?only ?inject config =
  let script = FM.generate_script config in
  let oracle = FM.build_oracle (FM.base_ldoc config) script in
  let primary, replica, channel = profile_run config script in
  FM.sweep ?pool ?progress ?only ?inject ~name:"Repl_matrix.run" grammar
    config
    [ (Primary, primary); (Replica, replica); (Channel, channel) ]
    (fun id ->
      match id with
      | FM.At (Primary, p, mode) ->
        eval_primary config ~script ~oracle ~init_points:primary.FM.init_points
          p mode
      | FM.At (Replica, p, mode) ->
        eval_replica config ~script ~oracle ~init_points:replica.FM.init_points
          p mode
      | FM.At (Channel, n, mode) -> eval_channel config ~script ~oracle n mode
      | FM.Probe _ -> eval_probe config ~script)
