(* Loopback Prime cluster for protocol-level experiments (E5).

   Same shape as the unit-test harness: replicas wired through an
   in-memory transport with a fixed per-message latency, no network
   substrate — isolating Prime's own latency behaviour. *)

type cluster = {
  engine : Sim.Engine.t;
  keystore : Crypto.Signature.keystore;
  config : Prime.Config.t;
  replicas : Prime.Replica.t array;
  clients : (string, Prime.Client.t) Hashtbl.t;
}

let make_cluster ?(config = Prime.Config.create ~f:1 ~k:0 ()) ?(latency = 0.002) ?seed () =
  (* Load runs hold thousands of in-flight events; pre-size the queue. *)
  let engine = Sim.Engine.create ?seed ~hint:4096 () in
  let trace = Sim.Trace.create () in
  let keystore = Crypto.Signature.create_keystore () in
  let n = config.Prime.Config.n in
  let replicas = Array.make n (Obj.magic 0) in
  let clients : (string, Prime.Client.t) Hashtbl.t = Hashtbl.create 8 in
  let deliver ~dst msg =
    ignore
      (Sim.Engine.schedule engine ~delay:latency (fun () ->
           Prime.Replica.handle_message replicas.(dst) msg))
  in
  let transport_for id =
    {
      Prime.Replica.send = (fun ~dst msg -> deliver ~dst msg);
      broadcast =
        (fun msg ->
          for dst = 0 to n - 1 do
            if dst <> id then deliver ~dst msg
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
  for id = 0 to n - 1 do
    let keypair = Crypto.Signature.generate keystore (Prime.Msg.replica_identity id) in
    replicas.(id) <-
      Prime.Replica.create ~engine ~trace ~keystore ~keypair ~transport:(transport_for id)
        ~id config
  done;
  Array.iter Prime.Replica.start replicas;
  { engine; keystore; config; replicas; clients }

let add_client c name =
  let keypair = Crypto.Signature.generate c.keystore name in
  let send_to_replica ~dst msg =
    ignore
      (Sim.Engine.schedule c.engine ~delay:0.002 (fun () ->
           Prime.Replica.handle_message c.replicas.(dst) msg))
  in
  let session =
    Prime.Client.create ~engine:c.engine ~keystore:c.keystore ~keypair ~send_to_replica
      c.config
  in
  Hashtbl.replace c.clients name session;
  session

(* Drive a steady update stream against a fresh cluster and collect
   confirmation latencies, plus the highest view any replica reached. *)
let measure_latencies ?(rate = 10.0) ?(duration = 30.0) ?(misbehavior = Prime.Replica.Honest)
    ?(config = Prime.Config.create ~f:1 ~k:0 ()) () =
  let c = make_cluster ~config () in
  Prime.Replica.set_misbehavior c.replicas.(0) misbehavior;
  let client = add_client c "load" in
  let stats = Sim.Stats.Summary.create () in
  Prime.Client.set_on_confirmed client (fun ~client_seq:_ ~latency ->
      Sim.Stats.Summary.add stats latency);
  let n_updates = int_of_float (rate *. duration) in
  for i = 0 to n_updates - 1 do
    ignore
      (Sim.Engine.schedule c.engine
         ~delay:(1.0 +. (float_of_int i /. rate))
         (fun () ->
           (* Submit through a non-leader replica so a faulty leader's
              misbehaviour is on the ordering path, not the intake path. *)
           ignore (Prime.Client.submit ~targets:[ 1 ] client ~op:(Printf.sprintf "op-%d" i))))
  done;
  Sim.Engine.run ~until:(duration +. 30.0) c.engine;
  let views = Array.map Prime.Replica.view c.replicas in
  let max_view = Array.fold_left max 0 views in
  (stats, n_updates, max_view)

(* --- chaos fault classes (E12) ------------------------------------------------

   One seeded chaos run per fault class, over the full deployment: the
   runner drives SCADA load, injects two fault windows of the class, and
   keeps the invariant checker attached throughout. *)

let chaos_classes =
  [
    ("crash", Chaos.Fault.Crash);
    ("partition", Chaos.Fault.Net_partition);
    ("lossy", Chaos.Fault.Lossy);
    ("leader", Chaos.Fault.Leader_fault);
    ("disk", Chaos.Fault.Disk);
  ]

let run_chaos_class ?(seed = 11) ?(duration = 60.0) fault_class =
  let config = Prime.Config.power_plant () in
  let rng = Sim.Rng.create (Int64.of_int seed) in
  let schedule = Chaos.Fault.of_class ~rng ~n:config.Prime.Config.n ~duration fault_class in
  Chaos.Runner.run ~config ~duration ~schedule ~seed ()
