"""Hand-coded Python mirrors of the built-in controller programs.

Each oracle repeats its program's float operations literally, statement by
statement, so running the package's ``dsl.compiler.DslController`` (the
compiled program on one pole, through ``act``) over any reading stream must match the oracle
actuator-for-actuator with exact float equality. Two deliberate subtleties
they share with the language: reading `light` always returns
the sensor (the lamp level the pole currently shows), never a value assigned
earlier in the same tick, and unassigned actuators keep their previous
output value.
"""

from lumenloop.engine import ActuatorCommand


def _clamp01(value):
    if value < 0.0:
        return 0.0
    if value > 1.0:
        return 1.0
    return value


class _OracleBase:
    def __init__(self):
        self.light = 0.0
        self.listen = True
        self.broadcast = 0.0

    def _emit(self):
        return ActuatorCommand(
            light=self.light, listen=self.listen, broadcast=self.broadcast
        )


class AlwaysOnOracle(_OracleBase):
    def act(self, r):
        self.light = 1.0
        self.listen = 1.0 >= 0.5
        self.broadcast = 0.0
        return self._emit()


class AlwaysOffOracle(_OracleBase):
    def act(self, r):
        self.light = 0.0
        self.listen = 0.0 >= 0.5
        self.broadcast = 0.0
        return self._emit()


class Iteration1Oracle(_OracleBase):
    def act(self, r):
        self.listen = 1.0 >= 0.5
        if r.motion or r.signal > 0.5:
            self.light = 1.0
            self.broadcast = 1.0
        else:
            self.broadcast = 0.0
            if float(r.ticks_since_motion) > 8.0:
                self.light = 0.2
        return self._emit()


class Iteration2Oracle(_OracleBase):
    def act(self, r):
        self.listen = 1.0 >= 0.5
        if r.motion:
            self.light = 1.0
            self.broadcast = 1.0
        else:
            self.broadcast = 0.0
            if r.signal > 0.5:
                self.light = 0.8
            else:
                if r.ambient < 0.05:
                    self.light = 0.3
                else:
                    self.light = 0.0
        return self._emit()


class Iteration3Oracle(_OracleBase):
    def __init__(self):
        super().__init__()
        self.was_moving = 0.0

    def act(self, r):
        if r.motion and self.was_moving < 0.5:
            self.broadcast = 1.0
        else:
            self.broadcast = 0.0
        if r.motion:
            self.was_moving = 1.0
            self.light = 1.0
        else:
            self.was_moving = 0.0
            if r.signal > 0.5:
                self.light = 0.8
            else:
                # `light * 0.5` reads the sensor, not this tick's output
                self.light = _clamp01(r.current_light * 0.5)
        if r.current_light < 0.5:
            self.listen = 1.0 >= 0.5
        else:
            self.listen = 0.0 >= 0.5
        return self._emit()


ORACLES = {
    "always_on": AlwaysOnOracle,
    "always_off": AlwaysOffOracle,
    "iteration1": Iteration1Oracle,
    "iteration2": Iteration2Oracle,
    "iteration3": Iteration3Oracle,
}
