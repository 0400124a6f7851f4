"""Fixed network specs for tests that need a network of each role.

The pipeline builds its networks from the config's [teacher], [student],
[generator] and [discriminator] sections; these are the same default
architectures, for tests that build networks directly.
"""

from mekd.nets import NetworkSpec


def teacher_spec(n: int, num_classes: int) -> NetworkSpec:
    return NetworkSpec("classifier", n, (128, 64), num_classes)


def student_spec(n: int, num_classes: int) -> NetworkSpec:
    return NetworkSpec("classifier", n, (32,), num_classes)


def generator_spec(num_classes: int, n: int,
                   output_range: tuple[float, float] = (0.0, 1.0)) -> NetworkSpec:
    return NetworkSpec("generator", num_classes, (64, 128), n,
                       output_range=output_range)


def discriminator_spec(n: int) -> NetworkSpec:
    return NetworkSpec("discriminator", n, (128, 64), 1, activation="leaky_relu")
