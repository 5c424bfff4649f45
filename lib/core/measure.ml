(* End-to-end reaction-time measurement (Section V).

   "The device periodically flipped a breaker and used two sensors to
   detect when the HMI screens of the two systems updated to reflect the
   change." The measurement is system-agnostic: it needs a way to flip a
   physical breaker and a hook telling it when a display cell repainted.
   Both Spire and the commercial baseline provide these. *)

type sample = { flipped_at : float; reflected_at : float }

let latency s = s.reflected_at -. s.flipped_at

(* Flip [breaker] [samples] times, [gap] seconds apart, and record the
   time until [watch_display] reports the matching change. Runs inside
   the engine; call [Sim.Engine.run] afterwards and then read [results].

   [watch_display] registers a callback receiving (breaker, closed). *)
let run ?(first_target = true) ~engine ~breaker ~flip ~watch_display ~samples ~gap () =
  let results = Sim.Stats.Summary.create () in
  let outstanding : (bool * float) option ref = ref None in
  let completed = ref 0 in
  watch_display (fun ~breaker:b ~closed ->
      match !outstanding with
      | Some (expected, t0) when String.equal b breaker && closed = expected ->
          outstanding := None;
          incr completed;
          Sim.Stats.Summary.add results (Sim.Engine.now engine -. t0)
      | _ -> ());
  let next = ref first_target in
  (* Random phase per flip: the device is not synchronised to anyone's
     polling cycle, so flips must not land exactly on poll ticks. *)
  let rng = Sim.Engine.split_rng engine in
  for i = 0 to samples - 1 do
    let jitter = Sim.Rng.float rng (Float.min (gap /. 4.0) 0.45) in
    ignore
      (Sim.Engine.schedule engine
         ~delay:((gap *. float_of_int (i + 1)) +. jitter)
         (fun () ->
           let target = !next in
           next := not target;
           outstanding := Some (target, Sim.Engine.now engine);
           flip target))
  done;
  (results, completed)

(* Convenience wrapper for a Spire deployment, watching its first HMI. *)
let spire_reaction_time ~deployment ~breaker ~samples ~gap () =
  match Deployment.find_breaker deployment breaker with
  | None -> invalid_arg ("Measure.spire_reaction_time: unknown breaker " ^ breaker)
  | Some (_, b) ->
      let hmi = (Deployment.hmis deployment).(0).Deployment.h_hmi in
      run
        ~first_target:(not (Plc.Breaker.is_closed b))
        ~engine:(Deployment.engine deployment) ~breaker
        ~flip:(fun close -> Plc.Breaker.force b (if close then Plc.Breaker.Closed else Plc.Breaker.Open))
        ~watch_display:(fun f -> Scada.Hmi.on_display_change hmi f)
        ~samples ~gap ()

(* Convenience wrapper for the commercial baseline. *)
let commercial_reaction_time ~engine ~commercial ~breaker ~samples ~gap () =
  match Commercial.find_breaker commercial breaker with
  | None -> invalid_arg ("Measure.commercial_reaction_time: unknown breaker " ^ breaker)
  | Some b ->
      run
        ~first_target:(not (Plc.Breaker.is_closed b))
        ~engine ~breaker
        ~flip:(fun close -> Plc.Breaker.force b (if close then Plc.Breaker.Closed else Plc.Breaker.Open))
        ~watch_display:(fun f -> Commercial.on_display_change commercial f)
        ~samples ~gap ()
