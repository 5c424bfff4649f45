(* Human-Machine Interface.

   Renders the power topology (the Fig. 4 screen) from display updates
   pushed by the SCADA masters, and lets the operator issue supervisory
   commands. A display cell only repaints when f + 1 distinct replicas
   report the same change, so a compromised master cannot paint a false
   picture — the same argument as the proxy's actuation threshold.

   The [on_display_change] hook is the Section V measurement point: the
   plant engineers' sensor watched an HMI box flip between black and
   white when a breaker moved. *)

type cell = { mutable closed : bool; mutable last_exec : int }

type t = {
  name : string;
  engine : Sim.Engine.t;
  trace : Sim.Trace.t;
  keystore : Crypto.Signature.keystore;
  config : Prime.Config.t;
  scenario : Plc.Power.scenario;
  client : Prime.Client.t;
  display : (string, cell) Hashtbl.t;
  display_gate : Threshold.t;
  mutable on_display_change : (breaker:string -> closed:bool -> unit) list;
  counters : Sim.Stats.Counter.t;
}

let create ~engine ~trace ~keystore ~config ~scenario ~client name =
  let t =
    {
      name;
      engine;
      trace;
      keystore;
      config;
      scenario;
      client;
      display = Hashtbl.create 64;
      display_gate = Threshold.create ~needed:(config.Prime.Config.f + 1) ();
      on_display_change = [];
      counters = Sim.Stats.Counter.create ();
    }
  in
  List.iter
    (fun breaker -> Hashtbl.replace t.display breaker { closed = true; last_exec = 0 })
    (Plc.Power.all_breakers scenario);
  t

let name t = t.name

let counters t = t.counters

let on_display_change t f = t.on_display_change <- f :: t.on_display_change

let displayed_closed t breaker =
  match Hashtbl.find_opt t.display breaker with Some c -> Some c.closed | None -> None

let energized_loads t =
  Plc.Power.energized t.scenario ~is_closed:(fun breaker ->
      match displayed_closed t breaker with Some c -> c | None -> false)

(* Operator action: open or close a breaker from the screen. *)
let command t ~breaker ~close =
  Sim.Stats.Counter.incr t.counters "command.issued";
  Obs.Registry.mark_command Obs.Registry.default ~breaker ~close
    ~stage:Obs.Registry.stage_command ~time:(Sim.Engine.now t.engine);
  Sim.Trace.record t.trace ~time:(Sim.Engine.now t.engine) ~category:"hmi"
    "%s: operator commands %s -> %s" t.name breaker (if close then "close" else "open");
  Prime.Client.submit t.client ~op:(Op.encode (Op.Command { breaker; close }))

let apply_display_update t ~exec_seq ~breaker ~closed =
  match Hashtbl.find_opt t.display breaker with
  | None -> ()
  | Some cell ->
      if exec_seq > cell.last_exec then begin
        cell.last_exec <- exec_seq;
        if cell.closed <> closed then begin
          cell.closed <- closed;
          Sim.Stats.Counter.incr t.counters "display.changed";
          (* The Section V measurement point: the repaint closes the
             status pipeline opened by the physical flip. *)
          Obs.Registry.mark_status Obs.Registry.default ~breaker ~closed
            ~stage:Obs.Registry.stage_repaint ~time:(Sim.Engine.now t.engine);
          List.iter (fun f -> f ~breaker ~closed) t.on_display_change
        end
      end

(* Display push: one signature check and one f + 1 gate vote for the
   whole change set, then each cell repaints under the usual monotone
   exec_seq rule. The vote key is the canonical encoding, so replicas
   must agree on the exact change list — a compromised master cannot
   smuggle a divergent subset through the gate. *)
let handle_hmi_batch t ~rep ~exec_seq ~changes signature =
  let body = Messages.encode_hmi_batch ~rep ~exec_seq ~changes in
  let valid =
    Crypto.Signature.verify t.keystore ~signer:(Prime.Msg.replica_identity rep) body signature
  in
  if not valid then Sim.Stats.Counter.incr t.counters "display.bad_sig"
  else if
    (* Vote key is the rep-independent encoding: all replicas pushing the
       same change set at the same exec point vote for the same key. *)
    Threshold.vote t.display_gate
      ~key:(Messages.encode_hmi_batch ~rep:(-1) ~exec_seq ~changes)
      ~voter:rep
  then begin
    if Obs.Flight.recording Obs.Flight.default then
      Obs.Flight.record Obs.Flight.default ~time:(Sim.Engine.now t.engine)
        ~severity:Obs.Flight.Info ~subsystem:"scada" ~kind:"gate.display"
        (Printf.sprintf "%s: display gate crossed for batch of %d at exec %d" t.name
           (List.length changes) exec_seq);
    List.iter (fun (breaker, closed) -> apply_display_update t ~exec_seq ~breaker ~closed) changes
  end

let handle_payload t payload =
  match payload with
  | Messages.Scada_msg (Messages.Hmi_batch { hb_rep; hb_exec_seq; hb_changes; hb_sig }) ->
      handle_hmi_batch t ~rep:hb_rep ~exec_seq:hb_exec_seq ~changes:hb_changes hb_sig
  | Prime.Msg.Prime_msg reply -> Prime.Client.handle_reply t.client reply
  | _ -> ()

(* Text rendering of the topology screen, for examples and logs. *)
let render t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "=== HMI %s ===\n" t.name);
  List.iter
    (fun (p : Plc.Power.plc_spec) ->
      Buffer.add_string buf (Printf.sprintf "  [%s]" p.Plc.Power.plc_name);
      List.iter
        (fun b ->
          let mark =
            match displayed_closed t b with
            | Some true -> "#" (* closed: filled box *)
            | Some false -> "." (* open *)
            | None -> "?"
          in
          Buffer.add_string buf (Printf.sprintf " %s%s" b mark))
        p.Plc.Power.breaker_names;
      Buffer.add_char buf '\n')
    t.scenario.Plc.Power.plcs;
  List.iter
    (fun (load, on) ->
      Buffer.add_string buf (Printf.sprintf "  %-24s %s\n" load (if on then "ENERGIZED" else "DARK")))
    (energized_loads t);
  Buffer.contents buf
