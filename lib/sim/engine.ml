open Types

type ('state, 'msg) protocol = {
  init : proc -> 'state;
  step :
    round:int -> me:proc -> 'state -> inbox:'msg envelope list ->
    'state * 'msg envelope list;
}

let run net protocol ~rounds =
  let n = Net.n net in
  let states = Array.init n protocol.init in
  let inboxes = ref (Array.make n []) in
  for r = 0 to rounds - 1 do
    let outgoing = ref [] in
    for p = n - 1 downto 0 do
      if not (Net.is_corrupt net p) then begin
        let state', msgs =
          protocol.step ~round:r ~me:p states.(p) ~inbox:!inboxes.(p)
        in
        states.(p) <- state';
        outgoing := msgs @ !outgoing
      end
    done;
    inboxes := Net.exchange net !outgoing
  done;
  states
