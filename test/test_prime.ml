(* Tests for the Prime replication engine: ordering safety and liveness,
   leader misbehaviour (crash / delay / censorship) and view changes,
   reconciliation, catchup, and application state-transfer signalling. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* In-memory transport mesh with per-message latency and a drop hook. *)
type cluster = {
  engine : Sim.Engine.t;
  trace : Sim.Trace.t;
  keystore : Crypto.Signature.keystore;
  config : Prime.Config.t;
  replicas : Prime.Replica.t array;
  clients : (string, Prime.Client.t) Hashtbl.t;
  mutable drop : src:int -> dst:int -> Prime.Msg.t -> bool;
  (* Added to the link latency of one message. *)
  mutable extra_delay : dst:int -> Prime.Msg.t -> float;
  applied : (int * Prime.Msg.Update.t) list ref array; (* per-replica exec log *)
  keypairs : Crypto.Signature.keypair array; (* what a compromised replica signs with *)
}

let make_cluster ?(config = Prime.Config.create ~f:1 ~k:0 ()) ?(latency = 0.001) ?seed () =
  let engine = Sim.Engine.create ?seed () in
  let trace = Sim.Trace.create () in
  let keystore = Crypto.Signature.create_keystore () in
  let n = config.Prime.Config.n in
  let replicas = Array.make n (Obj.magic 0) in
  let clients : (string, Prime.Client.t) Hashtbl.t = Hashtbl.create 8 in
  let cluster_ref = ref None in
  let deliver ~src ~dst msg =
    let c = Option.get !cluster_ref in
    if not (c.drop ~src ~dst msg) then
      ignore
        (Sim.Engine.schedule engine ~delay:(latency +. c.extra_delay ~dst msg) (fun () ->
             Prime.Replica.handle_message c.replicas.(dst) msg))
  in
  let transport_for id =
    {
      Prime.Replica.send = (fun ~dst msg -> deliver ~src:id ~dst msg);
      broadcast =
        (fun msg ->
          for dst = 0 to n - 1 do
            if dst <> id then deliver ~src:id ~dst msg
          done);
      reply_to_client =
        (fun ~client msg ->
          ignore
            (Sim.Engine.schedule engine ~delay:latency (fun () ->
                 match Hashtbl.find_opt clients client with
                 | Some session -> Prime.Client.handle_reply session msg
                 | None -> ())));
    }
  in
  let applied = Array.init n (fun _ -> ref []) in
  let keypairs =
    Array.init n (fun id -> Crypto.Signature.generate keystore (Prime.Msg.replica_identity id))
  in
  for id = 0 to n - 1 do
    let keypair = keypairs.(id) in
    let r =
      Prime.Replica.create ~engine ~trace ~keystore ~keypair ~transport:(transport_for id)
        ~id config
    in
    Prime.Replica.set_on_execute r (fun ~exec_seq u ->
        applied.(id) := (exec_seq, u) :: !(applied.(id)));
    replicas.(id) <- r
  done;
  let c =
    {
      engine;
      trace;
      keystore;
      config;
      replicas;
      clients;
      drop = (fun ~src:_ ~dst:_ _ -> false);
      extra_delay = (fun ~dst:_ _ -> 0.0);
      applied;
      keypairs;
    }
  in
  cluster_ref := Some c;
  Array.iter Prime.Replica.start replicas;
  c

let add_client c name =
  let keypair = Crypto.Signature.generate c.keystore name in
  let send_to_replica ~dst msg =
    ignore
      (Sim.Engine.schedule c.engine ~delay:0.001 (fun () ->
           Prime.Replica.handle_message c.replicas.(dst) msg))
  in
  let session =
    Prime.Client.create ~engine:c.engine ~keystore:c.keystore ~keypair ~send_to_replica
      c.config
  in
  Hashtbl.replace c.clients name session;
  session

let exec_history c id =
  List.rev !(c.applied.(id)) |> List.map (fun (s, u) -> (s, Prime.Msg.Update.key u))

let run c ~until = Sim.Engine.run ~until c.engine

(* --- basic ordering ---------------------------------------------------- *)

let test_single_update_executes_everywhere () =
  let c = make_cluster () in
  let client = add_client c "hmi" in
  let confirmed_latency = ref None in
  Prime.Client.set_on_confirmed client (fun ~client_seq:_ ~latency ->
      confirmed_latency := Some latency);
  let seq = Prime.Client.submit ~targets:[ 0 ] client ~op:"open breaker B57" in
  run c ~until:2.0;
  Array.iteri
    (fun id _ ->
      check_int (Printf.sprintf "replica %d executed one" id) 1
        (List.length (exec_history c id)))
    c.replicas;
  check "client confirmed" true (Prime.Client.is_confirmed client ~client_seq:seq);
  match !confirmed_latency with
  | Some l -> check "latency under a second" true (l < 1.0)
  | None -> Alcotest.fail "no confirmation callback"

let test_updates_execute_in_identical_order () =
  let c = make_cluster () in
  let hmi = add_client c "hmi" in
  let proxy = add_client c "plc-proxy" in
  for i = 1 to 20 do
    ignore
      (Sim.Engine.schedule c.engine ~delay:(0.01 *. float_of_int i) (fun () ->
           ignore (Prime.Client.submit ~targets:[ i mod 4 ] hmi ~op:(Printf.sprintf "cmd-%d" i));
           ignore
             (Prime.Client.submit ~targets:[ (i + 1) mod 4 ] proxy
                ~op:(Printf.sprintf "status-%d" i))))
  done;
  run c ~until:5.0;
  let reference = exec_history c 0 in
  check_int "all 40 executed" 40 (List.length reference);
  for id = 1 to 3 do
    Alcotest.(check (list (pair int (pair string int))))
      (Printf.sprintf "replica %d matches replica 0" id)
      reference (exec_history c id)
  done

let test_duplicate_submission_executes_once () =
  (* The client submits to every replica (each becomes an origin for the
     same update); client-seq dedup must yield exactly one execution. *)
  let c = make_cluster () in
  let client = add_client c "hmi" in
  ignore (Prime.Client.submit client ~op:"flip");
  run c ~until:2.0;
  Array.iteri
    (fun id _ ->
      check_int (Printf.sprintf "replica %d applied once" id) 1
        (List.length (exec_history c id)))
    c.replicas

let test_bad_client_signature_rejected () =
  let c = make_cluster () in
  (* A client whose key is not in the deployment keystore. *)
  let rogue_store = Crypto.Signature.create_keystore () in
  let rogue_kp = Crypto.Signature.generate rogue_store "rogue" in
  let u = Prime.Msg.Update.create ~keypair:rogue_kp ~client_seq:1 ~op:"open all breakers" in
  Prime.Replica.handle_message c.replicas.(0) (Prime.Msg.Update_msg u);
  run c ~until:2.0;
  check_int "nothing executed" 0 (List.length (exec_history c 0));
  check_int "bad signature counted" 1
    (Sim.Stats.Counter.get (Prime.Replica.counters c.replicas.(0)) "update.bad_sig")

(* --- leader failures ----------------------------------------------------- *)

let test_leader_crash_triggers_view_change () =
  let c = make_cluster () in
  let client = add_client c "hmi" in
  Prime.Replica.set_misbehavior c.replicas.(0) Prime.Replica.Crash_silent;
  let seq = Prime.Client.submit ~targets:[ 1 ] client ~op:"cmd-under-crash" in
  run c ~until:10.0;
  check "view advanced" true (Prime.Replica.view c.replicas.(1) > 0);
  check "update executed despite crashed leader" true
    (Prime.Client.is_confirmed client ~client_seq:seq);
  check_int "correct replicas executed it" 1 (List.length (exec_history c 1))

let test_slow_leader_within_bound_no_view_change () =
  let config = Prime.Config.create ~f:1 ~k:0 ~tat_allowance:0.4 () in
  let c = make_cluster ~config () in
  let client = add_client c "hmi" in
  Prime.Replica.set_misbehavior c.replicas.(0) (Prime.Replica.Slow_leader 0.15);
  let latencies = ref [] in
  Prime.Client.set_on_confirmed client (fun ~client_seq:_ ~latency ->
      latencies := latency :: !latencies);
  for i = 1 to 5 do
    ignore
      (Sim.Engine.schedule c.engine ~delay:(0.5 *. float_of_int i) (fun () ->
           ignore (Prime.Client.submit ~targets:[ 1 ] client ~op:(Printf.sprintf "c%d" i))))
  done;
  run c ~until:8.0;
  check_int "all confirmed" 5 (List.length !latencies);
  check_int "no view change" 0 (Prime.Replica.view c.replicas.(1));
  (* Latency is inflated by the leader's delay but still bounded. *)
  List.iter (fun l -> check "bounded" true (l < 1.0)) !latencies

let test_slow_leader_beyond_bound_replaced () =
  let config = Prime.Config.create ~f:1 ~k:0 ~tat_allowance:0.2 () in
  let c = make_cluster ~config () in
  let client = add_client c "hmi" in
  Prime.Replica.set_misbehavior c.replicas.(0) (Prime.Replica.Slow_leader 1.5);
  let seq = Prime.Client.submit ~targets:[ 1 ] client ~op:"c1" in
  run c ~until:15.0;
  check "view changed" true (Prime.Replica.view c.replicas.(1) > 0);
  check "update executed under new leader" true (Prime.Client.is_confirmed client ~client_seq:seq)

let test_censoring_leader_replaced () =
  let config = Prime.Config.create ~f:1 ~k:0 ~tat_allowance:0.2 () in
  let c = make_cluster ~config () in
  let client = add_client c "hmi" in
  (* Leader suppresses origin 2's summaries from its matrices. *)
  Prime.Replica.set_misbehavior c.replicas.(0) (Prime.Replica.Censor_origin 2);
  let seq = Prime.Client.submit ~targets:[ 2 ] client ~op:"censored-cmd" in
  run c ~until:15.0;
  check "view changed to evict censor" true (Prime.Replica.view c.replicas.(2) > 0);
  check "censored client's update executed" true
    (Prime.Client.is_confirmed client ~client_seq:seq)

(* --- replica failures ------------------------------------------------------ *)

let test_non_leader_crash_tolerated () =
  let c = make_cluster () in
  let client = add_client c "hmi" in
  Prime.Replica.shutdown c.replicas.(3);
  let seq = Prime.Client.submit ~targets:[ 0 ] client ~op:"with-one-down" in
  run c ~until:3.0;
  check "confirmed with 3 of 4" true (Prime.Client.is_confirmed client ~client_seq:seq);
  check_int "view stable" 0 (Prime.Replica.view c.replicas.(0))

let test_too_many_failures_block_progress_safely () =
  let c = make_cluster () in
  let client = add_client c "hmi" in
  Prime.Replica.shutdown c.replicas.(2);
  Prime.Replica.shutdown c.replicas.(3);
  let seq = Prime.Client.submit ~targets:[ 0 ] client ~op:"blocked" in
  run c ~until:10.0;
  (* Safety over liveness: nothing executes below quorum. *)
  check "not confirmed" false (Prime.Client.is_confirmed client ~client_seq:seq);
  check_int "replica 0 executed nothing" 0 (List.length (exec_history c 0));
  (* Progress resumes when a replica returns. *)
  Prime.Replica.start c.replicas.(2);
  run c ~until:20.0;
  check "confirmed after recovery" true (Prime.Client.is_confirmed client ~client_seq:seq)

let test_six_replica_power_plant_config () =
  (* f=1, k=1: six replicas keep working with one crashed (recovering)
     and one byzantine-silent replica at the same time. *)
  let config = Prime.Config.power_plant () in
  let c = make_cluster ~config () in
  let client = add_client c "hmi" in
  Prime.Replica.shutdown c.replicas.(5) (* proactive recovery in progress *);
  Prime.Replica.set_misbehavior c.replicas.(4) Prime.Replica.Crash_silent (* intruded *);
  let seq = Prime.Client.submit ~targets:[ 1 ] client ~op:"plant-cmd" in
  run c ~until:5.0;
  check "confirmed with one recovery + one intrusion" true
    (Prime.Client.is_confirmed client ~client_seq:seq)

(* --- reconciliation ---------------------------------------------------------- *)

let test_reconciliation_fetches_missing_bodies () =
  let c = make_cluster () in
  let client = add_client c "hmi" in
  (* Replica 3 never receives PO-Requests from replica 0: it will learn of
     the updates through summaries/pre-prepares and must reconcile. *)
  c.drop <-
    (fun ~src ~dst msg ->
      match msg with Prime.Msg.Po_request _ -> src = 0 && dst = 3 | _ -> false);
  let seq = Prime.Client.submit ~targets:[ 0 ] client ~op:"needs-recon" in
  run c ~until:5.0;
  check "confirmed" true (Prime.Client.is_confirmed client ~client_seq:seq);
  check_int "replica 3 executed via reconciliation" 1 (List.length (exec_history c 3));
  check "replica 3 requested missing bodies" true
    (Sim.Stats.Counter.get (Prime.Replica.counters c.replicas.(3)) "recon.requested" > 0)

(* --- catchup / state transfer -------------------------------------------------- *)

let test_catchup_after_downtime () =
  let c = make_cluster () in
  let client = add_client c "hmi" in
  Prime.Replica.shutdown c.replicas.(3);
  for i = 1 to 10 do
    ignore
      (Sim.Engine.schedule c.engine ~delay:(0.2 *. float_of_int i) (fun () ->
           ignore (Prime.Client.submit ~targets:[ 0 ] client ~op:(Printf.sprintf "cmd%d" i))))
  done;
  run c ~until:5.0;
  check_int "replica 3 missed everything" 0 (List.length (exec_history c 3));
  Prime.Replica.start c.replicas.(3);
  (* New traffic makes the gap visible and catchup closes it. *)
  for i = 11 to 14 do
    ignore
      (Sim.Engine.schedule c.engine ~delay:(6.0 +. (0.2 *. float_of_int (i - 10))) (fun () ->
           ignore (Prime.Client.submit ~targets:[ 0 ] client ~op:(Printf.sprintf "cmd%d" i))))
  done;
  run c ~until:20.0;
  check "replica 3 caught up" true (Prime.Replica.exec_seq c.replicas.(3) >= 14);
  check "catchup applied entries" true
    (Sim.Stats.Counter.get (Prime.Replica.counters c.replicas.(3)) "catchup.applied" > 0)

let test_app_state_transfer_signal_when_behind_log () =
  (* Tiny retention forces the replication level to give up and signal the
     application — the paper's Section III-A interaction. *)
  let config = Prime.Config.create ~f:1 ~k:0 ~log_retention:5 () in
  let c = make_cluster ~config () in
  let client = add_client c "hmi" in
  let signalled = ref false in
  Prime.Replica.set_app c.replicas.(3)
    {
      Prime.Replica.apply = (fun ~exec_seq:_ _ -> ());
      state_transfer_needed =
        (fun () ->
          signalled := true;
          (* The application performs its own transfer out-of-band and
             reports completion with a checkpoint from a correct peer. *)
          let next_exec_pp, exec_seq, cursor, client_seqs =
            Prime.Replica.order_state c.replicas.(0)
          in
          Prime.Replica.install_app_checkpoint c.replicas.(3) ~next_exec_pp ~exec_seq
            ~cursor ~client_seqs);
    };
  Prime.Replica.shutdown c.replicas.(3);
  for i = 1 to 30 do
    ignore
      (Sim.Engine.schedule c.engine ~delay:(0.2 *. float_of_int i) (fun () ->
           ignore (Prime.Client.submit ~targets:[ 0 ] client ~op:(Printf.sprintf "cmd%d" i))))
  done;
  run c ~until:10.0;
  (* Proactive recovery brings the replica back with wiped state; by now
     the others' logs no longer retain the missed range. *)
  Prime.Replica.restart_clean c.replicas.(3);
  for i = 31 to 36 do
    ignore
      (Sim.Engine.schedule c.engine ~delay:(11.0 +. (0.2 *. float_of_int (i - 30))) (fun () ->
           ignore (Prime.Client.submit ~targets:[ 0 ] client ~op:(Printf.sprintf "cmd%d" i))))
  done;
  run c ~until:30.0;
  check "application-level transfer was signalled" true !signalled;
  (* After the checkpoint, the replica follows new traffic again. *)
  let before = Prime.Replica.exec_seq c.replicas.(3) in
  ignore
    (Sim.Engine.schedule c.engine ~delay:0.1 (fun () ->
         ignore (Prime.Client.submit ~targets:[ 0 ] client ~op:"after-transfer")));
  run c ~until:35.0;
  check "executes after transfer" true (Prime.Replica.exec_seq c.replicas.(3) > before)

(* --- config ---------------------------------------------------------------------- *)

let test_config_sizing () =
  let c4 = Prime.Config.red_team () in
  check_int "red team n" 4 c4.Prime.Config.n;
  check_int "red team quorum" 3 c4.Prime.Config.quorum;
  let c6 = Prime.Config.power_plant () in
  check_int "plant n" 6 c6.Prime.Config.n;
  check_int "plant quorum" 4 c6.Prime.Config.quorum;
  let big = Prime.Config.create ~f:2 ~k:2 () in
  check_int "f=2 k=2 n" 11 big.Prime.Config.n;
  Alcotest.check_raises "f=0 rejected" (Invalid_argument "Config.create: f must be >= 1")
    (fun () -> ignore (Prime.Config.create ~f:0 ()))

(* Voter sets hold one bit per replica, so n stops below the int's width. *)
let test_config_bounds_n_by_voter_bits () =
  let rejects what make =
    check what true (match make () with _ -> false | exception Invalid_argument _ -> true)
  in
  rejects "f=21 (n = 64) rejected" (fun () -> Prime.Config.create ~f:21 ());
  rejects "f=20 k=1 (n = 63) rejected" (fun () -> Prime.Config.create ~f:20 ~k:1 ());
  check_int "f=20 (n = 61) accepted" 61 (Prime.Config.create ~f:20 ()).Prime.Config.n

(* --- safety property --------------------------------------------------------------- *)

let prop_replicas_agree_on_execution_order =
  QCheck.Test.make ~count:15 ~name:"replicas execute identical sequences under random load"
    QCheck.(pair (int_bound 1000) (int_range 5 25))
    (fun (seed, n_updates) ->
      let c = make_cluster ~seed:(Int64.of_int (seed + 1)) () in
      let client = add_client c "gen" in
      let rng = Sim.Rng.create (Int64.of_int (seed + 77)) in
      for _ = 1 to n_updates do
        let delay = Sim.Rng.float rng 2.0 in
        let target = Sim.Rng.int rng 4 in
        ignore
          (Sim.Engine.schedule c.engine ~delay (fun () ->
               ignore
                 (Prime.Client.submit ~targets:[ target ] client
                    ~op:(Printf.sprintf "op-%f" delay))))
      done;
      run c ~until:10.0;
      let reference = exec_history c 0 in
      List.length reference = n_updates
      && List.for_all (fun id -> exec_history c id = reference) [ 1; 2; 3 ])


let test_equivocating_leader_safety () =
  (* A fully Byzantine leader (with its key) sends conflicting
     pre-prepares to different halves of the cluster. Safety must hold:
     no two replicas execute different updates at the same position; the
     suspect-leader protocol eventually evicts it and liveness returns. *)
  let config = Prime.Config.create ~f:1 ~k:0 ~tat_allowance:0.3 () in
  let c = make_cluster ~config () in
  let client = add_client c "hmi" in
  Prime.Replica.set_misbehavior c.replicas.(0) Prime.Replica.Equivocate;
  for i = 1 to 10 do
    ignore
      (Sim.Engine.schedule c.engine ~delay:(0.3 *. float_of_int i) (fun () ->
           ignore (Prime.Client.submit ~targets:[ 1 ] client ~op:(Printf.sprintf "eq-%d" i))))
  done;
  run c ~until:20.0;
  (* Liveness restored under the new leader. *)
  check "view changed to evict equivocator" true (Prime.Replica.view c.replicas.(1) > 0);
  check_int "all updates executed" 10 (List.length (exec_history c 1));
  (* Safety: correct replicas hold identical execution prefixes. *)
  let reference = exec_history c 1 in
  List.iter
    (fun id ->
      let h = exec_history c id in
      let rec prefix_consistent a b =
        match (a, b) with
        | [], _ | _, [] -> true
        | x :: a, y :: b -> x = y && prefix_consistent a b
      in
      check (Printf.sprintf "replica %d prefix-consistent" id) true
        (prefix_consistent reference h))
    [ 2; 3 ]


(* Shared body of the lossy-network property and its named regression
   replays: drop [loss_pct]% of protocol messages until t=10, heal, and
   require full convergence by t=90. *)
let lossy_run_converges (seed, loss_pct) =
  let c = make_cluster ~seed:(Int64.of_int (seed + 31)) () in
  let drop_rng = Sim.Rng.create (Int64.of_int (seed + 131)) in
  (* Drop [loss_pct]% of every protocol message, uniformly. *)
  c.drop <- (fun ~src:_ ~dst:_ _ -> Sim.Rng.int drop_rng 100 < loss_pct);
  let client = add_client c "gen" in
  Prime.Client.enable_retransmit client ~period:0.5;
  for i = 1 to 10 do
    ignore
      (Sim.Engine.schedule c.engine ~delay:(0.2 *. float_of_int i) (fun () ->
           ignore (Prime.Client.submit ~targets:[ i mod 4 ] client ~op:(Printf.sprintf "l-%d" i))))
  done;
  (* Heal the network, then leave a generous convergence window: a
     bad drop pattern can trigger view changes whose recovery takes
     well past the heal point (e.g. seed 152 at 18% loss needed more
     than the 20s this test originally allowed). The property is
     that drops heal with no divergence, not that they heal fast. *)
  ignore
    (Sim.Engine.schedule c.engine ~delay:10.0 (fun () ->
         c.drop <- (fun ~src:_ ~dst:_ _ -> false)));
  run c ~until:90.0;
  (* Safety: identical execution logs; liveness: everything landed. *)
  let reference = exec_history c 0 in
  List.length reference = 10
  && List.for_all (fun id -> exec_history c id = reference) [ 1; 2; 3 ]

let prop_safety_under_lossy_network =
  QCheck.Test.make ~count:10
    ~name:"replicas stay consistent over a lossy network (drops heal, no divergence)"
    QCheck.(pair (int_bound 1000) (int_range 5 20))
    lossy_run_converges

(* Named replays of inputs that stalled before the healed-network
   retransmission fix (commit certificates + view-change gap filling +
   vc-report retransmission): 35/10 wedged with every replica counting
   the client's retransmissions as duplicates while laggards could never
   complete their commit quorums; 870/17 wedged on a post-view-change
   pp-sequence gap that no one could ever order. Each case was validated
   to fail against the pre-fix code. *)
let test_lossy_regression_35_10 () =
  check "seed 35 at 10% loss converges after heal" true (lossy_run_converges (35, 10))

let test_lossy_regression_870_17 () =
  check "seed 870 at 17% loss converges after heal" true (lossy_run_converges (870, 17))

(* --- verified-signature cache and direct signing ------------------------ *)

let test_sigcache_bound_and_hits () =
  let ks = Crypto.Signature.create_keystore () in
  let kp = Crypto.Signature.generate ks "replica-0" in
  let cache = Prime.Sigcache.create ~capacity:4 in
  let auth body = Crypto.Signature.sign kp body in
  let a0 = auth "m0" in
  check "first check verifies" true
    (Prime.Sigcache.check cache ks ~signer:"replica-0" "m0" a0 = `Valid);
  check "second check hits" true
    (Prime.Sigcache.check cache ks ~signer:"replica-0" "m0" a0 = `Hit);
  (* Push five more distinct triples through a capacity-4 cache: the
     size must never exceed the bound, and the oldest entry is evicted. *)
  for i = 1 to 5 do
    let body = Printf.sprintf "m%d" i in
    ignore (Prime.Sigcache.check cache ks ~signer:"replica-0" body (auth body));
    check (Printf.sprintf "bound holds after %d" i) true (Prime.Sigcache.size cache <= 4)
  done;
  check "oldest evicted, re-verifies" true
    (Prime.Sigcache.check cache ks ~signer:"replica-0" "m0" a0 = `Valid);
  (* Capacity 0 disables caching entirely. *)
  let off = Prime.Sigcache.create ~capacity:0 in
  ignore (Prime.Sigcache.check off ks ~signer:"replica-0" "m0" a0);
  check "disabled cache stays empty" true (Prime.Sigcache.size off = 0);
  check "disabled cache never hits" true
    (Prime.Sigcache.check off ks ~signer:"replica-0" "m0" a0 = `Valid)

let test_sigcache_never_accepts_forgery () =
  let ks = Crypto.Signature.create_keystore () in
  let kp = Crypto.Signature.generate ks "replica-0" in
  let cache = Prime.Sigcache.create ~capacity:16 in
  let forged = Crypto.Signature.forge ~signer:"replica-0" "open breaker" in
  check "forged auth invalid" true
    (Prime.Sigcache.check cache ks ~signer:"replica-0" "open breaker" forged = `Invalid);
  check "forgery does not populate" true (Prime.Sigcache.size cache = 0);
  (* A valid signature over the same body must not be confused with the
     forged tag, and vice versa after caching the valid one. *)
  let good = Crypto.Signature.sign kp "open breaker" in
  check "valid after forgery" true
    (Prime.Sigcache.check cache ks ~signer:"replica-0" "open breaker" good = `Valid);
  check "forged still invalid after valid cached" true
    (Prime.Sigcache.check cache ks ~signer:"replica-0" "open breaker" forged = `Invalid);
  let forged_sig = Crypto.Signature.forge ~signer:"replica-0" "x" in
  check "forged bare signature invalid" true
    (Prime.Sigcache.check cache ks ~signer:"replica-0" "x" forged_sig = `Invalid)

(* The cache is an optimisation only: over any sequence of checks —
   valid signatures, forgeries, and valid tags relabelled with another
   replica's identity — its verdict agrees with uncached verification.
   Each step packs (key, message, form, claimed signer, checked message)
   into one small int so collisions with cached entries are frequent. *)
let prop_sigcache_matches_verify =
  let ks = Crypto.Signature.create_keystore () in
  let keys = Array.init 2 (fun i -> Crypto.Signature.generate ks (Printf.sprintf "replica-%d" i)) in
  let id i = Crypto.Signature.identity keys.(i) in
  let msgs = [| "open B57"; "close B57" |] in
  QCheck.Test.make ~count:300 ~name:"sigcache verdicts match uncached verification"
    QCheck.(list_of_size Gen.(int_range 1 30) (int_bound 47))
    (fun steps ->
      let cache = Prime.Sigcache.create ~capacity:3 in
      List.for_all
        (fun step ->
          let key = step mod 2 and msg = step / 2 mod 2 and form = step / 4 mod 3 in
          let signer = id (step / 12 mod 2) and checked = msgs.(step / 24) in
          let s = Crypto.Signature.sign keys.(key) msgs.(msg) in
          let s =
            match form with
            | 0 -> s
            | 1 -> Crypto.Signature.of_tag ~signer:(id (1 - key)) (Crypto.Signature.tag s)
            | _ -> Crypto.Signature.forge ~signer:(id key) msgs.(msg)
          in
          let verdict = Prime.Sigcache.check cache ks ~signer checked s in
          (verdict = `Invalid) = not (Crypto.Signature.verify ks ~signer checked s))
        steps)

let crypto_counter c name =
  Array.fold_left
    (fun acc r -> acc + Sim.Stats.Counter.get (Prime.Replica.counters r) name)
    0 c.replicas

let test_direct_signing_orders_with_cache_hits () =
  (* Every message is signed when sent; ordering stays identical across
     replicas and relayed signatures still hit the verified cache. *)
  let c = make_cluster () in
  let client = add_client c "hmi" in
  for i = 1 to 30 do
    ignore
      (Sim.Engine.schedule c.engine ~delay:(0.005 *. float_of_int i) (fun () ->
           ignore (Prime.Client.submit ~targets:[ i mod 4 ] client ~op:(Printf.sprintf "d-%d" i))))
  done;
  run c ~until:5.0;
  let reference = exec_history c 0 in
  check_int "all executed" 30 (List.length reference);
  for id = 1 to 3 do
    Alcotest.(check (list (pair int (pair string int))))
      (Printf.sprintf "replica %d matches replica 0" id)
      reference (exec_history c id)
  done;
  check "cache hits occurred" true (crypto_counter c "crypto.cache_hit" > 0)

(* --- event-driven summaries and pre-prepares ------------------------------ *)

let replica_counter c id name = Sim.Stats.Counter.get (Prime.Replica.counters c.replicas.(id)) name

(* Updates arriving at an idle group, at phases scattered across the
   summary and pre-prepare periods, execute without waiting for a tick:
   certification, one summary round and one ordering round, each a few
   1 ms hops. Fixed-phase ticks add up to 10 ms + 30 ms of waiting. *)
let test_idle_group_reacts_without_ticks () =
  let c = make_cluster () in
  let client = add_client c "hmi" in
  let submitted = Hashtbl.create 32 in
  let worst = ref 0.0 in
  Array.iter
    (fun r ->
      Prime.Replica.set_on_execute r (fun ~exec_seq:_ u ->
          let lag = Sim.Engine.now c.engine -. Hashtbl.find submitted u.Prime.Msg.Update.op in
          worst := Float.max !worst lag))
    c.replicas;
  for i = 1 to 20 do
    let at = (0.6 *. float_of_int i) +. (float_of_int (i * 7919 mod 1000) *. 0.00003) in
    ignore
      (Sim.Engine.schedule c.engine ~delay:at (fun () ->
           let op = Printf.sprintf "idle-%d" i in
           Hashtbl.replace submitted op (Sim.Engine.now c.engine);
           ignore (Prime.Client.submit ~targets:[ i mod 4 ] client ~op)))
  done;
  run c ~until:13.0;
  Array.iteri
    (fun id _ ->
      check_int (Printf.sprintf "replica %d executed all" id) 20 (List.length (exec_history c id)))
    c.replicas;
  check (Printf.sprintf "every execution within 25 ms (worst %.1f ms)" (1000. *. !worst)) true
    (!worst < 0.025)

(* Two origins that certify 10 us apart are covered by one summary per
   replica and one pre-prepare: the coalescing delay absorbs the gap. The
   pair straddles a summary-period boundary (certification comes 2 ms
   after submission, at 0.669995 and 0.670005 s), where a fixed-phase
   tick would split them. *)
let test_near_simultaneous_origins_coalesce () =
  let c = make_cluster () in
  let keypair = Crypto.Signature.generate c.keystore "proxy" in
  run c ~until:0.6;
  let summaries () = Array.init 4 (fun id -> replica_counter c id "summary.sent") in
  let pre_prepares () = replica_counter c 0 "pre_prepare.sent" in
  let summaries_before = summaries () and pre_prepares_before = pre_prepares () in
  let u = Prime.Msg.Update.create ~keypair ~client_seq:1 ~op:"flip B57" in
  List.iter
    (fun (origin, at) ->
      ignore
        (Sim.Engine.schedule c.engine ~delay:(at -. 0.6) (fun () ->
             Prime.Replica.submit_update c.replicas.(origin) u)))
    [ (1, 0.667995); (2, 0.668005) ];
  run c ~until:0.95;
  let summaries_after = summaries () in
  Array.iteri
    (fun id before ->
      check_int (Printf.sprintf "replica %d sent one summary" id) (before + 1) summaries_after.(id))
    summaries_before;
  check_int "leader sent one pre-prepare" (pre_prepares_before + 1) (pre_prepares ());
  check_int "executed once everywhere" 1 (List.length (exec_history c 3))

(* Under sustained load the event path never beats the old cadence: at
   most one pre-prepare per delta_pp and one summary per summary_period. *)
let test_emission_rate_capped_under_load () =
  let c = make_cluster () in
  let client = add_client c "scada" in
  for i = 1 to 600 do
    ignore
      (Sim.Engine.schedule c.engine ~delay:(0.2 +. (0.002 *. float_of_int i)) (fun () ->
           ignore (Prime.Client.submit ~targets:[ i mod 4; (i + 1) mod 4 ] client
                     ~op:(Printf.sprintf "load-%d" i))))
  done;
  run c ~until:0.4;
  let summaries = Array.init 4 (fun id -> replica_counter c id "summary.sent") in
  let pre_prepares = replica_counter c 0 "pre_prepare.sent" in
  run c ~until:1.4;
  let pp_cap = int_of_float (1.0 /. Prime.Config.delta_pp) + 1 in
  let sum_cap = int_of_float (1.0 /. Prime.Config.summary_period) + 1 in
  let pp = replica_counter c 0 "pre_prepare.sent" - pre_prepares in
  check (Printf.sprintf "leader: %d pre-prepares in 1 s, cap %d" pp pp_cap) true (pp <= pp_cap);
  Array.iteri
    (fun id before ->
      let n = replica_counter c id "summary.sent" - before in
      check (Printf.sprintf "replica %d: %d summaries in 1 s, cap %d" id n sum_cap) true
        (n <= sum_cap))
    summaries;
  run c ~until:3.0;
  check_int "all executed" 600 (List.length (exec_history c 0))

(* Ten updates, then 55 s of quiet: the leader proposes nothing, so no
   ordering instance is created or retained, and each replica signs at
   most its idle summary refresh, once per refresh period. The leader
   signs no proposal that it then discards. *)
let test_idle_group_orders_nothing () =
  let c = make_cluster () in
  let client = add_client c "hmi" in
  for i = 1 to 10 do
    ignore
      (Sim.Engine.schedule c.engine ~delay:(0.1 *. float_of_int i) (fun () ->
           ignore (Prime.Client.submit ~targets:[ i mod 4 ] client ~op:(Printf.sprintf "q-%d" i))))
  done;
  let idle_from = 5.0 and idle_until = 60.0 in
  run c ~until:idle_from;
  check_int "all executed before the quiet span" 10 (List.length (exec_history c 3));
  let pre_prepares () =
    Array.fold_left ( + ) 0 (Array.init 4 (fun id -> replica_counter c id "pre_prepare.sent"))
  in
  let signs () = Array.init 4 (fun id -> replica_counter c id "crypto.sign") in
  let held () = Array.map Prime.Replica.retained_history c.replicas in
  let pp_before = pre_prepares () and signs_before = signs () and held_before = held () in
  run c ~until:idle_until;
  check_int "no pre-prepare while idle" pp_before (pre_prepares ());
  check "no ordering state gained or lost while idle" true (held () = held_before);
  let budget = int_of_float ((idle_until -. idle_from) /. Prime.Config.summary_refresh_period) in
  Array.iteri
    (fun id before ->
      let n = (signs ()).(id) - before in
      check (Printf.sprintf "replica %d: %d signs while idle, budget %d" id n budget) true
        (n <= budget))
    signs_before

(* A quiet laggard: replica 3 loses every pre-prepare, prepare and
   commit between 1.0 and 1.5 s, and then the group goes quiet, so no
   later pre-prepare tells it that it is behind. The peers' summaries
   certify the five updates past its cursor; once a whole catchup tick
   passes without it executing anything, it probes, and its peers'
   answers bring it up to date. Without that rule it never catches up. *)
let test_quiet_laggard_catches_up () =
  let c = make_cluster () in
  c.drop <-
    (fun ~src:_ ~dst msg ->
      let now = Sim.Engine.now c.engine in
      dst = 3 && now >= 1.0 && now < 1.5
      &&
      match msg with
      | Prime.Msg.Pre_prepare _ | Prime.Msg.Prepare _ | Prime.Msg.Commit _ -> true
      | _ -> false);
  let client = add_client c "hmi" in
  for i = 1 to 5 do
    ignore
      (Sim.Engine.schedule c.engine ~delay:(1.0 +. (0.08 *. float_of_int i)) (fun () ->
           ignore (Prime.Client.submit ~targets:[ i mod 3 ] client ~op:(Printf.sprintf "g-%d" i))))
  done;
  let caught_up = ref infinity in
  Prime.Replica.set_on_execute c.replicas.(3) (fun ~exec_seq _ ->
      if exec_seq = 5 then caught_up := Sim.Engine.now c.engine);
  run c ~until:1.5;
  check "replica 3 is behind at 1.5 s" true (Prime.Replica.exec_seq c.replicas.(3) < 5);
  check_int "the others executed all" 5 (Prime.Replica.exec_seq c.replicas.(0));
  run c ~until:4.0;
  check (Printf.sprintf "replica 3 executed all 5 by 4 s (at %.2f s)" !caught_up) true
    (!caught_up <= 4.0);
  check "replica 3's history equals replica 0's" true (exec_history c 3 = exec_history c 0)

(* The rule behind it counts peers: one peer ahead, however far, never
   triggers a probe; f + 1 peers ahead do. *)
let test_peers_ahead_needs_f_plus_one () =
  let config = Prime.Config.create ~f:1 ~k:0 () in
  let keystore = Crypto.Signature.create_keystore () in
  let p = Prime.Preorder.create config ~my_id:3 in
  let summary rep aru =
    let kp = Crypto.Signature.generate keystore (Prime.Msg.replica_identity rep) in
    let body = Prime.Msg.encode_summary_body ~sum_rep:rep ~aru in
    { Prime.Msg.sum_rep = rep; aru; sum_sig = Crypto.Signature.sign kp body }
  in
  let ahead ~origin ~executed = Prime.Preorder.peers_ahead p ~origin ~executed in
  ignore (Prime.Preorder.receive_summary p (summary 3 [| 9; 0; 0; 9 |]));
  check "my own summary does not count" false (ahead ~origin:0 ~executed:0);
  ignore (Prime.Preorder.receive_summary p (summary 0 [| 1000; 0; 0; 0 |]));
  check "one peer far ahead: no" false (ahead ~origin:0 ~executed:0);
  ignore (Prime.Preorder.receive_summary p (summary 1 [| 5; 0; 0; 0 |]));
  check "f + 1 peers ahead: yes" true (ahead ~origin:0 ~executed:4);
  check "executed what f + 1 certify: no" false (ahead ~origin:0 ~executed:5);
  check "another origin: no" false (ahead ~origin:1 ~executed:0)

(* --- early votes and aged retransmission -------------------------------- *)

(* Pre-prepares reach replica 2 5 ms late, after the other replicas'
   prepares and commits. Counting those early votes on acceptance orders
   at once (worst 12 ms, 14 ms with replica 3 silent). Dropping them left
   replica 2 to the reconciliation tick's relay: with every replica live
   it had still not executed one update 7 s in (worst 1.8 s); with
   replica 3 silent, when everyone needs replica 2's commit, the worst
   was 102 ms. *)
let late_pre_prepare_worst ~silent =
  let c = make_cluster () in
  c.extra_delay <-
    (fun ~dst msg ->
      match msg with Prime.Msg.Pre_prepare _ when dst = 2 -> 0.005 | _ -> 0.0);
  Option.iter
    (fun id -> Prime.Replica.set_misbehavior c.replicas.(id) Prime.Replica.Crash_silent)
    silent;
  let client = add_client c "hmi" in
  let submitted = Hashtbl.create 32 in
  let worst = ref 0.0 in
  Array.iter
    (fun r ->
      Prime.Replica.set_on_execute r (fun ~exec_seq:_ u ->
          let lag = Sim.Engine.now c.engine -. Hashtbl.find submitted u.Prime.Msg.Update.op in
          worst := Float.max !worst lag))
    c.replicas;
  for i = 1 to 20 do
    ignore
      (Sim.Engine.schedule c.engine ~delay:(0.3 *. float_of_int i) (fun () ->
           let op = Printf.sprintf "late-%d" i in
           Hashtbl.replace submitted op (Sim.Engine.now c.engine);
           ignore (Prime.Client.submit ~targets:[ i mod 3 ] client ~op)))
  done;
  run c ~until:7.0;
  (c, !worst)

let test_early_votes_counted () =
  List.iter
    (fun silent ->
      let c, worst = late_pre_prepare_worst ~silent in
      let name = match silent with None -> "all live" | Some _ -> "replica 3 silent" in
      for id = 0 to 2 do
        check_int (Printf.sprintf "%s: replica %d executed all" name id) 20
          (List.length (exec_history c id))
      done;
      check (Printf.sprintf "%s: every execution within 25 ms (worst %.1f ms)" name (1000. *. worst))
        true (worst < 0.025))
    [ None; Some 3 ]

(* On a lossless mesh whose ordering round (about 120 ms over 20 ms links)
   outlasts a reconciliation period, nothing is retransmitted before it
   has waited a full period: no instance is relayed, and a PO-request is
   re-sent only if it was assigned before the previous tick and is still
   unexecuted, so at most once. Resending everything unexecuted at each
   tick sent 32 relays and 27 requests here. *)
let test_no_retransmission_when_lossless () =
  let c = make_cluster ~latency:0.02 () in
  let client = add_client c "hmi" in
  for i = 1 to 20 do
    ignore
      (Sim.Engine.schedule c.engine ~delay:(0.02 *. float_of_int i) (fun () ->
           ignore (Prime.Client.submit ~targets:[ i mod 4 ] client ~op:(Printf.sprintf "far-%d" i))))
  done;
  run c ~until:3.0;
  check_int "all executed" 20 (List.length (exec_history c 3));
  let total name = Array.fold_left ( + ) 0 (Array.init 4 (fun id -> replica_counter c id name)) in
  check_int "no ordering relay" 0 (total "order.retransmit");
  let po = total "po_request.retransmit" in
  check (Printf.sprintf "%d PO-request retransmissions, at most one per update" po) true (po <= 20)

(* Order-level early-vote buffer, driven directly. *)
let order_fixture () =
  let config = Prime.Config.create ~f:1 ~k:0 () in
  let o = Prime.Order.create config ~my_id:0 in
  let matrix = Array.make config.Prime.Config.n None in
  let pp_sig = Crypto.Signature.forge ~signer:"replica-0" "pre-prepare" in
  let auth = Crypto.Signature.forge ~signer:"replica" "commit" in
  let digest ~view ~pp_seq = Prime.Msg.matrix_digest ~view ~pp_seq matrix in
  let accept ~view ~pp_seq =
    match Prime.Order.accept_pre_prepare o ~now:0.0 ~view ~pp_seq ~matrix ~pp_sig with
    | `Accept _ -> ()
    | _ -> Alcotest.fail "pre-prepare not accepted"
  in
  let commits ~view ~pp_seq ~digest =
    List.iter
      (fun rep -> ignore (Prime.Order.add_commit o ~rep ~view ~pp_seq ~digest auth))
      [ 1; 2; 3 ]
  in
  (o, digest, accept, commits)

let test_order_early_votes_match_view_and_digest () =
  let o, digest, accept, commits = order_fixture () in
  (* Matching early commits order the instance on acceptance. *)
  commits ~view:0 ~pp_seq:1 ~digest:(digest ~view:0 ~pp_seq:1);
  check_int "three keys buffered" 3 (Prime.Order.early_votes o);
  accept ~view:0 ~pp_seq:1;
  check "ordered on acceptance" true (Prime.Order.is_ordered o 1);
  check_int "folded entries deleted" 0 (Prime.Order.early_votes o);
  (* Another digest: buffered, never counted. *)
  commits ~view:0 ~pp_seq:2 ~digest:(digest ~view:0 ~pp_seq:99);
  accept ~view:0 ~pp_seq:2;
  check "other digest not counted" false (Prime.Order.is_ordered o 2);
  (* An older view: votes of view 0 do not count for view 1's proposal. *)
  commits ~view:0 ~pp_seq:3 ~digest:(digest ~view:1 ~pp_seq:3);
  accept ~view:1 ~pp_seq:3;
  check "older view not counted" false (Prime.Order.is_ordered o 3);
  (* Votes for a newer view wait out the older view's proposal. *)
  commits ~view:1 ~pp_seq:4 ~digest:(digest ~view:1 ~pp_seq:4);
  accept ~view:0 ~pp_seq:4;
  check "newer-view votes not counted for view 0" false (Prime.Order.is_ordered o 4);
  accept ~view:1 ~pp_seq:4;
  check "newer-view votes counted once proposed" true (Prime.Order.is_ordered o 4);
  check_int "nothing left buffered" 0 (Prime.Order.early_votes o)

let test_order_early_window () =
  let o, digest, accept, commits = order_fixture () in
  (* Nothing seen yet: only pp_seq 1 is within max_seen_pp + 1. *)
  commits ~view:0 ~pp_seq:2 ~digest:(digest ~view:0 ~pp_seq:2);
  check_int "vote above the window creates no state" 0 (Prime.Order.early_votes o);
  accept ~view:0 ~pp_seq:1;
  accept ~view:0 ~pp_seq:2;
  check "never counted" false (Prime.Order.is_ordered o 2)

let test_order_executed_instance_entries_gone () =
  let o, digest, accept, commits = order_fixture () in
  accept ~view:0 ~pp_seq:1;
  (* Votes of a later view for the same instance wait as early votes... *)
  ignore (Prime.Order.add_prepare o ~rep:2 ~view:1 ~pp_seq:1 ~digest:(digest ~view:1 ~pp_seq:1));
  check_int "later-view vote buffered" 1 (Prime.Order.early_votes o);
  (* ...until view 0 orders the instance and it executes. *)
  commits ~view:0 ~pp_seq:1 ~digest:(digest ~view:0 ~pp_seq:1);
  check "ordered" true (Prime.Order.is_ordered o 1);
  let executed, missing =
    Prime.Order.try_execute o
      ~update_for:(fun ~origin:_ ~po_seq:_ -> None)
      ~floor_for:(fun ~origin:_ -> 0)
  in
  check "nothing to execute or fetch" true (executed = [] && missing = []);
  check_int "instance executed" 1 (Prime.Order.max_executed o);
  check_int "its entries are gone" 0 (Prime.Order.early_votes o)

(* Voter sets are bit sets: one voter counts once however often it votes,
   on time or early. *)
let test_order_repeated_vote_counts_once () =
  let o, digest, accept, _ = order_fixture () in
  let auth = Crypto.Signature.forge ~signer:"replica" "commit" in
  let prepare rep =
    Prime.Order.add_prepare o ~rep ~view:0 ~pp_seq:1 ~digest:(digest ~view:0 ~pp_seq:1)
  in
  let commit ~pp_seq rep =
    Prime.Order.add_commit o ~rep ~view:0 ~pp_seq ~digest:(digest ~view:0 ~pp_seq) auth
  in
  accept ~view:0 ~pp_seq:1;
  check "repeated prepares do not make a quorum" false
    (List.exists Fun.id [ prepare 1; prepare 1; prepare 1; prepare 2; prepare 2 ]);
  check "no prepared certificate" true (Prime.Order.prepared_certs o = []);
  check "the third voter prepares it" true (prepare 3);
  check "repeated commits do not make a quorum" false
    (List.exists Fun.id (List.map (commit ~pp_seq:1) [ 1; 1; 2; 2 ]));
  check "not ordered" false (Prime.Order.is_ordered o 1);
  check "the third voter orders it" true (commit ~pp_seq:1 3);
  (* Early commits: one entry per voter, counted once on acceptance. *)
  List.iter (fun rep -> ignore (commit ~pp_seq:2 rep)) [ 1; 1; 2; 2 ];
  check_int "one early entry per voter" 2 (Prime.Order.early_votes o);
  accept ~view:0 ~pp_seq:2;
  check "repeated early commits do not order" false (Prime.Order.is_ordered o 2)

(* A vote from outside 0..n-1 is never counted and keeps no state, on
   every path that writes a voter bit; 64 would alias voter 0 if its bit
   were taken unchecked. *)
let test_order_invalid_voters_never_count () =
  List.iter
    (fun bad ->
      let o, digest, accept, _ = order_fixture () in
      let name what = Printf.sprintf "voter %d: %s" bad what in
      let auth = Crypto.Signature.forge ~signer:"replica" "commit" in
      let d = digest ~view:0 ~pp_seq:1 in
      ignore (Prime.Order.add_prepare o ~rep:bad ~view:0 ~pp_seq:1 ~digest:d);
      ignore (Prime.Order.add_commit o ~rep:bad ~view:0 ~pp_seq:1 ~digest:d auth);
      check_int (name "no early vote kept") 0 (Prime.Order.early_votes o);
      accept ~view:0 ~pp_seq:1;
      let votes add = List.exists Fun.id (List.map add [ 1; 2; bad; bad ]) in
      check (name "prepares not counted") false
        (votes (fun rep -> Prime.Order.add_prepare o ~rep ~view:0 ~pp_seq:1 ~digest:d));
      check (name "nothing prepared") true (Prime.Order.prepared_certs o = []);
      check (name "commits not counted") false
        (votes (fun rep -> Prime.Order.add_commit o ~rep ~view:0 ~pp_seq:1 ~digest:d auth));
      check (name "not ordered") false (Prime.Order.is_ordered o 1);
      let matrix = Array.make 4 None and pp_sig = Crypto.Signature.forge ~signer:"replica-0" "pp" in
      let install pp_seq reps =
        ignore
          (Prime.Order.install_cert o ~pp_seq ~view:0 ~matrix ~digest:(digest ~view:0 ~pp_seq)
             ~pp_sig ~commits:(List.map (fun rep -> (rep, auth)) reps))
      in
      install 2 [ bad; 1; bad; 2 ];
      check (name "short certificate not served") true (Prime.Order.ordered_cert o 2 = None);
      install 3 [ 3; bad; 1; 2 ];
      match Prime.Order.ordered_cert o 3 with
      | Some (_, _, _, commits) ->
          check (name "certificate lists voters 1, 2, 3") true (List.map fst commits = [ 1; 2; 3 ])
      | None -> Alcotest.fail (name "certificate not served"))
    [ -1; 4; 62; 63; 64 ]

(* The in-place eligibility count agrees with the quorum-th largest entry
   of the sorted column, over random matrices with missing rows. *)
let prop_eligibility_matches_sorted_column =
  QCheck.Test.make ~count:300 ~name:"in-place eligibility matches the sorted column"
    QCheck.(pair (int_bound 3) (list_of_size Gen.(return 121) (int_range (-1) 6)))
    (fun (size, cells) ->
      let config =
        match size with
        | 0 -> Prime.Config.create ~f:1 ~k:0 ()
        | 1 -> Prime.Config.create ~f:1 ~k:1 ()
        | 2 -> Prime.Config.create ~f:2 ~k:0 ()
        | _ -> Prime.Config.create ~f:2 ~k:2 ()
      in
      let n = config.Prime.Config.n and cells = Array.of_list cells in
      let matrix =
        Array.init n (fun row ->
            if cells.(row * 11) < 0 then None
            else
              Some
                {
                  Prime.Msg.sum_rep = row;
                  aru = Array.init n (fun o -> max 0 cells.((row * 11) + o));
                  sum_sig = Crypto.Signature.forge ~signer:"replica" "summary";
                })
      in
      let reference origin =
        let column =
          Array.to_list matrix
          |> List.filter_map (Option.map (fun s -> s.Prime.Msg.aru.(origin)))
          |> List.sort (fun a b -> compare b a)
        in
        match List.nth_opt column (config.Prime.Config.quorum - 1) with Some v -> v | None -> 0
      in
      List.for_all
        (fun origin -> Prime.Preorder.eligible_up_to config matrix ~origin = reference origin)
        (List.init n Fun.id))

(* --- state retention ------------------------------------------------------------ *)

(* [checkpoint_interval] executions per retention window. *)
let retention_interval = 16

let retention_config () =
  Prime.Config.create ~f:1 ~k:0 ~checkpoint_interval:retention_interval ()

(* A paced stream of [count] updates from one client, [gap] apart from
   [start], to the default f + 1 rotating targets. *)
let submit_stream c client ~prefix ~start ~gap ~count =
  for i = 1 to count do
    ignore
      (Sim.Engine.schedule c.engine ~delay:(start +. (gap *. float_of_int i)) (fun () ->
           ignore (Prime.Client.submit client ~op:(Printf.sprintf "%s-%d" prefix i))))
  done

(* Over 600 updates (two origins each, so 1 200 executions), what a
   replica holds for history it has executed stays within two
   checkpoint intervals: the mark moves at each interval boundary and
   releases what lies below the previous one. *)
let test_state_bounded_by_checkpoint_interval () =
  let c = make_cluster ~config:(retention_config ()) () in
  let client = add_client c "hmi" in
  submit_stream c client ~prefix:"bounded" ~start:0.0 ~gap:0.01 ~count:600;
  let worst = Array.make 4 (0, 0) in
  ignore
    (Sim.Engine.every c.engine ~period:0.005 (fun () ->
         Array.iteri
           (fun id r ->
             let instances, slots = Prime.Replica.retained_history r in
             let wi, ws = worst.(id) in
             worst.(id) <- (max wi instances, max ws slots))
           c.replicas));
  run c ~until:8.0;
  Array.iteri
    (fun id r ->
      let executed = Prime.Replica.exec_seq r in
      check (Printf.sprintf "replica %d executed all (%d)" id executed) true (executed >= 1200);
      let instances, slots = worst.(id) in
      let bound = 2 * retention_interval in
      check
        (Printf.sprintf "replica %d: at most %d executed instances held (%d)" id bound instances)
        true (instances <= bound);
      check
        (Printf.sprintf "replica %d: at most %d executed slots held (%d)" id bound slots)
        true (slots <= bound))
    c.replicas

(* Validly signed messages for the first slot and instance, recorded as
   they crossed the mesh and replayed once both are released, are
   dropped unverified: no state, no signature check, no answer. *)
let test_replayed_released_messages_create_no_state () =
  let c = make_cluster ~config:(retention_config ()) () in
  let client = add_client c "hmi" in
  let recorded = ref [] in
  let replaying = ref false and answers = ref 0 in
  c.drop <-
    (fun ~src ~dst msg ->
      (if dst = 1 then
         match msg with
         | Prime.Msg.Po_request { po_seq = 1; _ }
         | Prime.Msg.Po_ack { ack_po_seq = 1; _ }
         | Prime.Msg.Pre_prepare { pp_seq = 1; _ }
         | Prime.Msg.Prepare { prep_seq = 1; _ }
         | Prime.Msg.Commit { com_seq = 1; _ } ->
             recorded := msg :: !recorded
         | _ -> ());
      if !replaying && src = 1 then incr answers;
      false);
  submit_stream c client ~prefix:"replay" ~start:0.0 ~gap:0.01 ~count:100;
  run c ~until:3.0;
  let kinds =
    List.sort_uniq compare
      (List.map
         (function
           | Prime.Msg.Po_request _ -> "po-request"
           | Prime.Msg.Po_ack _ -> "po-ack"
           | Prime.Msg.Pre_prepare _ -> "pre-prepare"
           | Prime.Msg.Prepare _ -> "prepare"
           | _ -> "commit")
         !recorded)
  in
  check "every kind recorded" true
    (kinds = [ "commit"; "po-ack"; "po-request"; "pre-prepare"; "prepare" ]);
  let r = c.replicas.(1) in
  check "replica 1 executed past two intervals" true
    (Prime.Replica.exec_seq r > 2 * retention_interval);
  let held = Prime.Replica.retained_history r in
  let counter name = Sim.Stats.Counter.get (Prime.Replica.counters r) name in
  let checks () = counter "crypto.verify" + counter "crypto.cache_hit" in
  let checks_before = checks () in
  replaying := true;
  List.iter (Prime.Replica.handle_message r) (List.rev !recorded);
  replaying := false;
  check "retained state unchanged" true (Prime.Replica.retained_history r = held);
  check_int "no ack, prepare or commit sent" 0 !answers;
  check_int "no signature checked" checks_before (checks ());
  check_int "every replay dropped" (List.length !recorded) (counter "released.drop")

(* A replica cut off for more than two intervals finds its peers'
   history released: it rejoins through catchup entries and ends with
   the same execution history as the others. *)
let test_laggard_past_release_point_rejoins () =
  let c = make_cluster ~config:(retention_config ()) () in
  let client = add_client c "hmi" in
  let isolated = ref true in
  c.drop <- (fun ~src ~dst _ -> !isolated && (src = 3 || dst = 3));
  submit_stream c client ~prefix:"cut" ~start:0.0 ~gap:0.02 ~count:100;
  run c ~until:3.0;
  check "peers moved past two intervals" true
    (Prime.Replica.exec_seq c.replicas.(0) > 2 * retention_interval
    && Prime.Replica.exec_seq c.replicas.(3) = 0);
  isolated := false;
  submit_stream c client ~prefix:"healed" ~start:0.0 ~gap:0.02 ~count:20;
  run c ~until:10.0;
  let final = Prime.Replica.exec_seq c.replicas.(0) in
  Array.iteri
    (fun id r -> check_int (Printf.sprintf "replica %d exec_seq" id) final (Prime.Replica.exec_seq r))
    c.replicas;
  check "laggard's history equals replica 0's" true (exec_history c 3 = exec_history c 0);
  check "laggard used catchup" true (replica_counter c 3 "catchup.applied" > 0)

(* A catchup reply counts once per replica, however often it arrives:
   one compromised replica sending the same signed reply twice must not
   make the f + 1 votes that let a laggard adopt an entry no replica
   ordered, nor the foreign ordering cursor that came with it. *)
let test_catchup_reply_counts_each_replica_once () =
  let c = make_cluster () in
  let client = add_client c "hmi" in
  for i = 1 to 10 do
    ignore (Prime.Client.submit client ~op:(Printf.sprintf "op-%d" i))
  done;
  run c ~until:2.0;
  let exec = Prime.Replica.exec_seq c.replicas.(3) in
  check_int "replica 3 is current" (Prime.Replica.exec_seq c.replicas.(0)) exec;
  let rogue = Crypto.Signature.generate c.keystore "rogue-hmi" in
  let forged = Prime.Msg.Update.create ~keypair:rogue ~client_seq:1 ~op:"never ordered" in
  let entries = [ (exec + 1, forged) ] in
  let _, _, cursor = Prime.Replica.exec_point c.replicas.(3) in
  let body =
    Prime.Msg.encode_catchup_reply ~rep:1
      (Prime.Msg.encode_catchup_content ~upto:(exec + 1) ~behind_log:false ~next_exec_pp:1000
         ~cursor ~entries)
  in
  let reply =
    Prime.Msg.Catchup_reply
      {
        cr_rep = 1;
        cr_entries = entries;
        cr_upto = exec + 1;
        cr_behind_log = false;
        cr_next_exec_pp = 1000;
        cr_cursor = cursor;
        cr_sig = Crypto.Signature.sign c.keypairs.(1) body;
      }
  in
  Prime.Replica.handle_message c.replicas.(3) reply;
  Prime.Replica.handle_message c.replicas.(3) reply;
  check_int "the forged entry is not executed" exec (Prime.Replica.exec_seq c.replicas.(3));
  for i = 11 to 20 do
    ignore (Prime.Client.submit client ~op:(Printf.sprintf "op-%d" i))
  done;
  run c ~until:4.0;
  let final = Prime.Replica.exec_seq c.replicas.(0) in
  check "the group went on" true (final > exec);
  Array.iteri
    (fun id r -> check_int (Printf.sprintf "replica %d exec_seq" id) final (Prime.Replica.exec_seq r))
    c.replicas;
  check "replica 3's history equals replica 0's" true (exec_history c 3 = exec_history c 0)

(* The leader restarts wiped in its own view, so it counts its
   sequences from 1 again. Once catchup has shown it the execution point
   and its peers have relayed the pre-prepares they accepted, it proposes
   past both: updates submitted 2.1–2.5 s after the restart execute by
   3.5 s. Re-proposing each used sequence in turn, one per emission,
   left them waiting until it had counted past the ~50 it had used. *)
let test_wiped_leader_resumes_past_used_sequences () =
  let c = make_cluster () in
  let client = add_client c "hmi" in
  submit_stream c client ~prefix:"before" ~start:0.0 ~gap:0.2 ~count:45;
  run c ~until:10.0;
  check_int "all executed before the restart" 45 (List.length (exec_history c 1));
  Prime.Replica.restart_clean c.replicas.(0);
  submit_stream c client ~prefix:"after" ~start:2.0 ~gap:0.1 ~count:5;
  run c ~until:13.5;
  List.iter
    (fun id ->
      check_int (Printf.sprintf "replica %d executed all" id) 50 (List.length (exec_history c id)))
    [ 1; 2; 3 ];
  check_int "the restarted leader is at the same point" (Prime.Replica.exec_seq c.replicas.(1))
    (Prime.Replica.exec_seq c.replicas.(0))

let suite =
  [
    ("single update executes everywhere", `Quick, test_single_update_executes_everywhere);
    ("equivocating leader: safety holds", `Quick, test_equivocating_leader_safety);
    ("identical execution order", `Quick, test_updates_execute_in_identical_order);
    ("duplicate submission executes once", `Quick, test_duplicate_submission_executes_once);
    ("bad client signature rejected", `Quick, test_bad_client_signature_rejected);
    ("leader crash triggers view change", `Quick, test_leader_crash_triggers_view_change);
    ("slow leader within bound", `Quick, test_slow_leader_within_bound_no_view_change);
    ("slow leader beyond bound replaced", `Quick, test_slow_leader_beyond_bound_replaced);
    ("censoring leader replaced", `Quick, test_censoring_leader_replaced);
    ("non-leader crash tolerated", `Quick, test_non_leader_crash_tolerated);
    ("too many failures block safely", `Quick, test_too_many_failures_block_progress_safely);
    ("six replica power plant config", `Quick, test_six_replica_power_plant_config);
    ("reconciliation fetches missing bodies", `Quick, test_reconciliation_fetches_missing_bodies);
    ("catchup after downtime", `Quick, test_catchup_after_downtime);
    ("app state transfer when behind log", `Quick, test_app_state_transfer_signal_when_behind_log);
    ("config sizing", `Quick, test_config_sizing);
    ("config bounds n by voter bits", `Quick, test_config_bounds_n_by_voter_bits);
    ("sigcache bound and hits", `Quick, test_sigcache_bound_and_hits);
    ("sigcache never accepts forgery", `Quick, test_sigcache_never_accepts_forgery);
    ("direct signing orders with cache hits", `Quick, test_direct_signing_orders_with_cache_hits);
    ("lossy regression 35/10", `Slow, test_lossy_regression_35_10);
    ("lossy regression 870/17", `Slow, test_lossy_regression_870_17);
    QCheck_alcotest.to_alcotest prop_replicas_agree_on_execution_order;
    QCheck_alcotest.to_alcotest prop_safety_under_lossy_network;
    QCheck_alcotest.to_alcotest prop_sigcache_matches_verify;
    ("idle group reacts without ticks", `Quick, test_idle_group_reacts_without_ticks);
    ("near-simultaneous origins coalesce", `Quick, test_near_simultaneous_origins_coalesce);
    ("emission rate capped under load", `Quick, test_emission_rate_capped_under_load);
    ("an idle group orders nothing", `Quick, test_idle_group_orders_nothing);
    ("quiet laggard catches up", `Quick, test_quiet_laggard_catches_up);
    ("peers ahead needs f + 1 peers", `Quick, test_peers_ahead_needs_f_plus_one);
    ("wiped leader resumes past used sequences", `Quick, test_wiped_leader_resumes_past_used_sequences);
    QCheck_alcotest.to_alcotest prop_eligibility_matches_sorted_column;
    ("early votes counted on acceptance", `Quick, test_early_votes_counted);
    ("no retransmission when lossless", `Quick, test_no_retransmission_when_lossless);
    ("order: early votes match view and digest", `Quick, test_order_early_votes_match_view_and_digest);
    ("order: early-vote window", `Quick, test_order_early_window);
    ("order: executed instance's entries gone", `Quick, test_order_executed_instance_entries_gone);
    ("order: repeated vote counts once", `Quick, test_order_repeated_vote_counts_once);
    ("order: invalid voters never count", `Quick, test_order_invalid_voters_never_count);
    ("prime state bounded by checkpoint interval", `Quick, test_state_bounded_by_checkpoint_interval);
    ("replayed released messages create no state", `Quick, test_replayed_released_messages_create_no_state);
    ("laggard past the release point rejoins", `Quick, test_laggard_past_release_point_rejoins);
    ("catchup reply counts each replica once", `Quick, test_catchup_reply_counts_each_replica_once);
  ]

let () = Alcotest.run "prime" [ ("prime", suite) ]
